//! Allocation guard for the native transaction.
//!
//! A `Txn` keeps its `LOCAL_SET` inline up to four instances and draws its
//! id only when something reads it, so beginning a transaction, taking up
//! to four locks and releasing them must not touch the allocator — with
//! the telemetry counters off, and on once a thread has counted each
//! `(site, mode)` key it uses. A fifth instance spills the set to the
//! heap; the transaction must still release every mode, in acquisition
//! order. The benchmark can only show this as time; a counting allocator
//! shows it exactly, on any machine.
//!
//! This binary holds exactly one test, and the counter is per thread, so
//! nothing else the harness does is counted.

use semlock::mode::{ModeId, ModeTable};
use semlock::phi::Phi;
use semlock::schema::set_schema;
use semlock::spec::CommutSpec;
use semlock::symbolic::{SymArg, SymOp, SymbolicSet};
use semlock::telemetry::{self, EventKind, Level};
use semlock::value::Value;
use semlock::{AcquireSpec, SemLock, Txn};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// One transaction over `locks`, each in `mode`: begin, acquire in order,
/// release everything.
fn transaction(locks: &[SemLock], mode: ModeId) {
    let mut txn = Txn::new();
    for lock in locks {
        txn.acquire(lock, &AcquireSpec::new(mode))
            .expect("an uncontended acquisition failed");
    }
    assert_eq!(txn.held_count(), locks.len());
    txn.unlock_all();
}

#[test]
fn native_transactions_of_up_to_four_instances_do_not_allocate() {
    let schema = set_schema();
    let spec = CommutSpec::builder(schema.clone())
        .differ("add", 0, "remove", 0)
        .always("add", "add")
        .always("remove", "remove")
        .build();
    let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(4));
    let site = b.add_site(SymbolicSet::new(vec![
        SymOp::new(schema.method("add"), vec![SymArg::Var(0)]),
        SymOp::new(schema.method("remove"), vec![SymArg::Var(0)]),
    ]));
    let table = b.build();
    let mode = table.select(site, &[Value(1)]);
    let locks: Vec<SemLock> = (0..5).map(|_| SemLock::new(table.clone())).collect();

    for counters in [false, true] {
        telemetry::set_enabled(counters);
        for n in 1..=4 {
            // The warm-up creates every telemetry cell the measured
            // transactions count into.
            transaction(&locks[..n], mode);
            let before = allocations();
            for _ in 0..1000 {
                transaction(&locks[..n], mode);
            }
            assert_eq!(
                allocations() - before,
                0,
                "1000 {n}-instance transactions allocated (telemetry counters: {counters})"
            );
        }
    }

    // Five instances spill the set; every mode is still released, in
    // acquisition order, under the transaction's one (lazily drawn) id.
    telemetry::set_level(Level::Trace);
    telemetry::reset();
    let mut txn = Txn::new();
    for lock in &locks {
        txn.acquire(lock, &AcquireSpec::new(mode)).unwrap();
    }
    assert!(locks
        .iter()
        .all(|l| l.hold_count(mode) == 1 && txn.holds(l)));
    txn.unlock_all();
    assert_eq!(txn.held_count(), 0);
    assert!(locks.iter().all(|l| l.hold_count(mode) == 0));
    let id = txn.id();
    drop(txn);
    telemetry::set_level(Level::Off);
    let (events, dropped) = telemetry::snapshot();
    assert_eq!(dropped, 0);
    let released: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::Release)
        .map(|e| (e.instance, e.txn))
        .collect();
    let expected: Vec<(u64, u64)> = locks.iter().map(|l| (l.unique(), id)).collect();
    assert_eq!(released, expected);
}
