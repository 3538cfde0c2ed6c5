//! Allocation guard for the paper workloads' native paths.
//!
//! A key-present `ComputeIfAbsent::invoke` — select, `Txn`, acquire, the
//! map lookup, `unlock_all` — must not touch the allocator, under Ours and
//! under 2PL: both transactions keep their held sets inline up to four
//! instances, so the two strategies are compared at equal footing. A 2PL
//! transaction of five locks spills its set and still releases them all.
//! The benchmark can only show this as time; a counting allocator shows
//! it exactly, on any machine.
//!
//! This binary holds exactly one test, and the counter is per thread, so
//! nothing else the harness does is counted.

use baselines::{TplLock, TplTxn};
use semlock::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{ComputeIfAbsent, SyncKind};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn key_present_invocations_do_not_allocate() {
    const KEYS: u64 = 256;
    for kind in [SyncKind::Semantic, SyncKind::TwoPl] {
        let cia = ComputeIfAbsent::new(kind, KEYS);
        // Every key present: the measured invocations take the path that
        // computes nothing.
        for k in 0..KEYS {
            cia.invoke(Value(k));
        }
        let before = allocations();
        for k in 0..10 * KEYS {
            cia.invoke(Value(k % KEYS));
        }
        assert_eq!(
            allocations() - before,
            0,
            "{kind:?}: key-present invocations allocated"
        );
    }

    let locks: Vec<TplLock> = (0..5).map(|_| TplLock::new()).collect();
    let before = allocations();
    for n in 1..=4 {
        for _ in 0..1000 {
            let mut txn = TplTxn::new();
            locks[..n].iter().for_each(|l| txn.lv(l));
            txn.unlock_all();
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "2PL transactions of up to four locks allocated"
    );
    let mut txn = TplTxn::new();
    locks.iter().for_each(|l| txn.lv(l));
    assert!(locks.iter().all(|l| txn.holds(l)));
    txn.unlock_all();
    assert!(locks.iter().all(|l| !txn.holds(l)));
    // Every lock is free again.
    for l in &locks {
        l.lock();
        l.unlock();
    }
}
