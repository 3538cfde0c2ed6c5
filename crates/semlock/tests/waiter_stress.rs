//! Stress tests for the claim-based lock-free waiter stack — both the raw
//! `WaiterStack` (push / claim / park protocol in isolation) and the full
//! `Mech` admission path that drives it under every counter layout.
//!
//! The invariants at quiescence are absolute, not statistical: zero live
//! waiter nodes (every refcount returned), an empty stack, a clear summary
//! bit, and balanced hold counters. Any lost wakeup shows up as a hang
//! (bounded by the park timeouts) rather than a flaky assertion.
//!
//! `SEMLOCK_STRESS_ROUNDS` scales the per-thread round count so the CI
//! soak job can push much harder than the default `cargo test` run.

use semlock::mech::{Acquire, AdmissionBackend, ConflictSet, Mech, Wait, WaitStrategy};
use semlock::stack::WaiterStack;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn stress_rounds() -> u64 {
    std::env::var("SEMLOCK_STRESS_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

/// Raw stack protocol: N pusher threads each run M rounds of
/// prepare → push → park while a dedicated claimer thread drains the
/// stack until every round is accounted for. Exercises concurrent pushes
/// racing the claim CAS, immediate re-pushes overwriting `next`, and the
/// tag bump on both ends. Quiescence: no live nodes, empty stack.
#[test]
fn raw_stack_pushers_never_lose_a_wakeup() {
    const THREADS: u64 = 8;
    let rounds = stress_rounds();
    let stack = Arc::new(WaiterStack::new());
    let parked = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let claimer = {
        let stack = Arc::clone(&stack);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // Keep sweeping until the pushers report completion, then one
            // final claim for any node pushed right before the flag flipped.
            while !done.load(Ordering::Acquire) {
                stack.claim().wake_all();
                std::thread::yield_now();
            }
            stack.claim().wake_all();
        })
    };

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let stack = Arc::clone(&stack);
            let parked = Arc::clone(&parked);
            scope.spawn(move || {
                for _ in 0..rounds {
                    let node = stack.alloc();
                    node.prepare();
                    stack.push(&node);
                    // The claimer loop is still running, so a bounded park
                    // only expires if a wakeup was genuinely lost.
                    assert!(
                        node.park_for(Duration::from_secs(30)),
                        "waiter round never woken: lost wakeup"
                    );
                    parked.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    done.store(true, Ordering::Release);
    claimer.join().unwrap();

    assert_eq!(parked.load(Ordering::Relaxed), THREADS * rounds);
    assert!(stack.is_empty(), "stack not drained at quiescence");
    assert_eq!(stack.live_nodes(), 0, "leaked waiter nodes");
}

/// A waiter that gives up (its bounded park expires and it walks away)
/// leaves a stale node behind; the next claim must sweep it without
/// notifying anyone twice or leaking the refcount. Interleaves quitters
/// with persistent waiters so sweeps happen mid-traffic.
#[test]
fn stale_nodes_are_swept_not_leaked() {
    let stack = Arc::new(WaiterStack::new());
    let rounds = stress_rounds().min(200);
    for _ in 0..rounds {
        // A quitter: pushes, never gets notified, abandons the node. Its
        // OwnedNode drop releases the waiter ref; the stack still holds
        // the membership ref until a claim sweeps it.
        {
            let quitter = stack.alloc();
            quitter.prepare();
            stack.push(&quitter);
            assert!(!quitter.park_for(Duration::from_millis(1)));
        }
        // A persistent waiter pushed on top of the stale entry: the claim
        // must walk through (and release) the stale node to reach it.
        let waiter = stack.alloc();
        waiter.prepare();
        stack.push(&waiter);
        stack.claim().wake_all();
        assert!(waiter.park_for(Duration::from_secs(10)));
    }
    assert!(stack.is_empty());
    assert_eq!(stack.live_nodes(), 0, "stale nodes leaked refcounts");
}

/// Full-mech handoff stress on every layout: every thread wants the same
/// self-conflicting mode, so all contended acquisitions park on the claim
/// stack and every release performs a handoff. A slice of the operations
/// use tight deadlines to interleave timed-out (stale) nodes with live
/// ones. Quiescence: balanced counters, zero nodes, clear summary, and
/// `acquisitions == successes` observed by the threads themselves.
#[test]
fn mech_handoff_stress_all_layouts() {
    const THREADS: u64 = 8;
    let rounds = stress_rounds();
    for layout in [
        AdmissionBackend::Packed,
        AdmissionBackend::Dwcas,
        AdmissionBackend::Wide,
    ] {
        let mech = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
        let held = Arc::new(AtomicU64::new(0));
        let successes = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let mech = Arc::clone(&mech);
                let held = Arc::clone(&held);
                let successes = Arc::clone(&successes);
                scope.spawn(move || {
                    let cs = ConflictSet::new(&[0]);
                    for i in 0..rounds {
                        let acquired = if (t + i) % 4 == 0 {
                            // Tight deadline: often times out, leaving a
                            // stale node for later claims to sweep.
                            mech.lock_deadline(
                                0,
                                cs,
                                Instant::now() + Duration::from_micros(50),
                                &mut || Wait::Continue,
                            ) == Acquire::Acquired
                        } else {
                            mech.lock(0, cs);
                            true
                        };
                        if acquired {
                            // Mode 0 conflicts with itself: mutual exclusion.
                            assert_eq!(held.fetch_add(1, Ordering::AcqRel), 0);
                            assert_eq!(held.fetch_sub(1, Ordering::AcqRel), 1);
                            successes.fetch_add(1, Ordering::Relaxed);
                            assert!(mech.unlock(0), "{layout:?}: underflow");
                        }
                    }
                });
            }
        });
        assert_eq!(mech.held_total(), 0, "{layout:?}: holds leaked");
        assert_eq!(
            mech.live_waiter_nodes(),
            0,
            "{layout:?}: waiter nodes leaked"
        );
        assert!(!mech.waiter_summary(), "{layout:?}: stale summary bit");
        assert_eq!(
            mech.stats().acquisitions.load(Ordering::Relaxed),
            successes.load(Ordering::Relaxed),
            "{layout:?}: stats disagree with observed admissions"
        );
    }
}
