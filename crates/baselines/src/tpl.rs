//! Ordered two-phase locking over plain per-instance locks — the *2PL*
//! baseline of §6: "an implementation of the standard two-phase locking
//! protocol where each ADT instance is protected by a standard lock",
//! acquired in the same deadlock-free order the §3 synthesis produces.

use crate::binlock::BinaryLock;
use semlock::inline_vec::InlineVec;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A plain exclusive lock with a process-unique ordering id, one per
/// shared ADT instance.
pub struct TplLock {
    lock: BinaryLock,
    id: u64,
}

impl Default for TplLock {
    fn default() -> Self {
        TplLock::new()
    }
}

impl TplLock {
    /// New, unlocked.
    pub fn new() -> TplLock {
        TplLock {
            lock: BinaryLock::new(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Ordering id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Acquire.
    pub fn lock(&self) {
        self.lock.lock();
    }

    /// Release.
    pub fn unlock(&self) {
        self.lock.unlock();
    }
}

/// Locks a [`TplTxn`] holds inline before its held set spills to the
/// heap — the same four as the semantic `Txn`'s `LOCAL_SET`, so 2PL pays
/// for no allocation Ours does not (and, like `Txn`, its prologue,
/// acquisition and epilogue are `#[inline]`).
const INLINE_HELD: usize = 4;

/// A 2PL transaction: acquires instance locks, tracks them, and releases
/// all at the end. Same-class instances are ordered dynamically by id,
/// mirroring `LV2`.
#[derive(Default)]
pub struct TplTxn<'a> {
    /// Held locks in acquisition order (`None` only in unused inline
    /// slots).
    held: InlineVec<Option<&'a TplLock>, INLINE_HELD>,
}

impl<'a> TplTxn<'a> {
    /// Begin.
    #[inline]
    pub fn new() -> TplTxn<'a> {
        TplTxn::default()
    }

    /// Acquire unless already held (the `LV` skip).
    #[inline]
    pub fn lv(&mut self, l: &'a TplLock) {
        if self.holds(l) {
            return;
        }
        l.lock();
        self.held.push(Some(l));
    }

    /// Acquire several locks in ascending id order.
    pub fn lv_sorted(&mut self, mut locks: Vec<&'a TplLock>) {
        locks.sort_by_key(|l| l.id);
        for l in locks {
            self.lv(l);
        }
    }

    /// Position of `l` in the held set, if held.
    #[inline]
    fn position(&self, l: &TplLock) -> Option<usize> {
        self.held
            .iter()
            .position(|h| h.is_some_and(|h| h.id == l.id))
    }

    /// Whether currently holding a lock.
    pub fn holds(&self, l: &TplLock) -> bool {
        self.position(l).is_some()
    }

    /// Release one instance early.
    pub fn release(&mut self, l: &TplLock) {
        if let Some(pos) = self.position(l) {
            self.held.swap_remove(pos);
            l.unlock();
        }
    }

    /// Release everything, in acquisition order.
    #[inline]
    pub fn unlock_all(&mut self) {
        self.held
            .drain_each(|l| l.into_iter().for_each(TplLock::unlock));
    }
}

impl Drop for TplTxn<'_> {
    #[inline]
    fn drop(&mut self) {
        self.unlock_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lv_skips_reacquire() {
        let l = TplLock::new();
        let mut txn = TplTxn::new();
        txn.lv(&l);
        txn.lv(&l);
        assert!(txn.holds(&l));
        txn.unlock_all();
        assert!(!txn.holds(&l));
        // Lock is actually free again.
        l.lock();
        l.unlock();
    }

    #[test]
    fn sorted_acquisition_avoids_deadlock() {
        let a = Arc::new(TplLock::new());
        let b = Arc::new(TplLock::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = a.clone();
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let mut txn = TplTxn::new();
                    // Threads present the locks in opposite orders.
                    if t % 2 == 0 {
                        txn.lv_sorted(vec![&a, &b]);
                    } else {
                        txn.lv_sorted(vec![&b, &a]);
                    }
                    txn.unlock_all();
                }
            }));
        }
        for h in handles {
            h.join().unwrap(); // hangs on deadlock
        }
    }

    #[test]
    fn drop_releases() {
        let l = TplLock::new();
        {
            let mut txn = TplTxn::new();
            txn.lv(&l);
        }
        l.lock();
        l.unlock();
    }
}
