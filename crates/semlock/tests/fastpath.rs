//! Conformance suite for the admission fast paths: the packed (64-bit)
//! and Dwcas (128-bit) admission words must make *exactly* the same
//! admission, refusal and balance decisions — and keep exactly the same
//! statistics — as the wide counters-under-mutex oracle on identical
//! schedules, and no representation may lose a wakeup, leak a waiter
//! node, or leave the waiter summary behind.

use proptest::prelude::*;
use semlock::mech::{
    AdmissionBackend, ConflictSet, Mech, Wait, WaitStrategy, DWCAS_MODE_LIMIT, PACKED_MODE_LIMIT,
};
use semlock::mode::{LockSiteId, ModeTable};
use semlock::phi::Phi;
use semlock::schema::set_schema;
use semlock::spec::CommutSpec;
use semlock::symbolic::{SymArg, SymOp, SymbolicSet};
use semlock::value::Value;
use semlock::{AcquireSpec, LockError, SemLock};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small random-but-symmetric conflict relation over `n` modes, seeded
/// so packed and wide runs replay the identical relation.
fn conflict_lists(n: usize, seed: u64) -> Vec<Vec<u32>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut conflicts = vec![Vec::new(); n];
    for a in 0..n {
        for b in a..n {
            if rng.gen_bool(0.4) {
                conflicts[a].push(b as u32);
                if b != a {
                    conflicts[b].push(a as u32);
                }
            }
        }
    }
    conflicts
}

/// One schedule step of the sequential equivalence check.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Non-blocking admission attempt.
    TryLock(u32),
    /// Release (may be a deliberate double unlock — both representations
    /// must refuse it identically).
    Unlock(u32),
    /// Bounded admission with an already-expired deadline: admits iff
    /// admissible right now, else times out without waiting.
    Expired(u32),
}

/// Does `backend` serve a partition of `modes` modes? The words have a
/// mode-count ceiling (packed ≤ 8, Dwcas ≤ 16); construction above it
/// panics.
fn serves(backend: AdmissionBackend, modes: usize) -> bool {
    match backend {
        AdmissionBackend::Packed => modes <= PACKED_MODE_LIMIT,
        AdmissionBackend::Dwcas => modes <= DWCAS_MODE_LIMIT,
        _ => true,
    }
}

/// One blocking [`Mech`] per representation that serves a partition of
/// `modes` modes. The first element is always the wide
/// counters-under-mutex mech — the conformance oracle the others are
/// checked against.
fn conformance_mechs(modes: usize) -> Vec<Mech> {
    AdmissionBackend::CONCRETE
        .into_iter()
        .filter(|&b| serves(b, modes))
        .map(|b| Mech::with_backend(modes, WaitStrategy::Block, b))
        .collect()
}

/// Replay one seeded schedule against every representation that serves
/// `modes`, asserting identical outcomes at every step, identical final
/// balance and identical statistics. The wide counters-under-mutex mech
/// is the oracle; each admission word must agree with it and,
/// transitively, with the other.
fn replay_schedule(modes: usize, steps: &[Step]) {
    let conflicts = conflict_lists(modes, 0xC0FFEE);
    let mechs = conformance_mechs(modes);
    let (wide, others) = mechs.split_first().unwrap();
    assert_eq!(wide.backend(), AdmissionBackend::Wide);
    for (i, &step) in steps.iter().enumerate() {
        match step {
            Step::TryLock(m) => {
                let cs = &conflicts[m as usize];
                let w = wide.try_lock(m, ConflictSet::new(cs));
                for b in others {
                    let p = b.try_lock(m, ConflictSet::new(cs));
                    assert_eq!(p, w, "step {i}: {} try_lock({m}) diverged", b.backend());
                }
            }
            Step::Unlock(m) => {
                let w = wide.unlock(m);
                for b in others {
                    let p = b.unlock(m);
                    assert_eq!(p, w, "step {i}: {} unlock({m}) diverged", b.backend());
                }
            }
            Step::Expired(m) => {
                let cs = &conflicts[m as usize];
                let deadline = Instant::now() - Duration::from_millis(1);
                let w =
                    wide.lock_deadline(m, ConflictSet::new(cs), deadline, &mut || Wait::Continue);
                for b in others {
                    let p =
                        b.lock_deadline(m, ConflictSet::new(cs), deadline, &mut || Wait::Continue);
                    assert_eq!(
                        p,
                        w,
                        "step {i}: {} expired lock_deadline({m}) diverged",
                        b.backend()
                    );
                }
            }
        }
        for b in others {
            for m in 0..modes as u32 {
                assert_eq!(
                    b.count(m),
                    wide.count(m),
                    "step {i}: {} count({m}) diverged",
                    b.backend()
                );
            }
        }
    }
    use std::sync::atomic::Ordering;
    let ws = wide.stats();
    for b in others {
        let ps = b.stats();
        for (name, p, w) in [
            ("acquisition", &ps.acquisitions, &ws.acquisitions),
            ("contended", &ps.contended, &ws.contended),
            ("timeout", &ps.timeouts, &ws.timeouts),
            ("underflow", &ps.underflows, &ws.underflows),
        ] {
            assert_eq!(
                p.load(Ordering::Relaxed),
                w.load(Ordering::Relaxed),
                "{}: {name} totals diverged",
                b.backend()
            );
        }
        assert_eq!(b.held_total(), wide.held_total());
        assert!(
            !b.waiter_summary(),
            "{}: waiter summary left set by a sequential schedule",
            b.backend()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical seeded schedules drive packed, Dwcas and wide to
    /// identical admission/refusal/balance outcomes, step by step. Mode
    /// counts above 8 drop packed (it cannot represent them) but keep
    /// exercising the rest, including modes in the high 64-bit half of
    /// the Dwcas word.
    #[test]
    fn all_backends_replay_identically(
        modes in 1usize..=16,
        raw in proptest::collection::vec((0u8..3, 0u32..16, any::<bool>()), 1..120),
    ) {
        let steps: Vec<Step> = raw
            .iter()
            .map(|&(kind, m, _)| {
                let m = m % modes as u32;
                match kind {
                    0 => Step::TryLock(m),
                    1 => Step::Unlock(m),
                    _ => Step::Expired(m),
                }
            })
            .collect();
        replay_schedule(modes, &steps);
    }
}

/// Threaded flavour of the equivalence check: the same seeded chaos
/// schedule (per-thread RNG streams of lock/unlock pairs) runs against
/// every representation; totals must balance identically even though
/// interleavings differ.
#[test]
fn all_backends_balance_under_threads() {
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::Ordering;
    const THREADS: usize = 4;
    const OPS: usize = 2_000;
    let modes = 6usize;
    let conflicts = Arc::new(conflict_lists(modes, 7));
    for backend in conformance_mechs(modes) {
        let backend = Arc::new(backend);
        let name = backend.backend();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let backend = Arc::clone(&backend);
                let conflicts = Arc::clone(&conflicts);
                scope.spawn(move || {
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(t as u64);
                    for _ in 0..OPS {
                        let m = rng.gen_range(0..modes) as u32;
                        backend.lock(m, ConflictSet::new(&conflicts[m as usize]));
                        assert!(backend.unlock(m));
                    }
                });
            }
        });
        assert_eq!(backend.held_total(), 0, "{name}: leaked holds");
        let s = backend.stats();
        assert_eq!(
            s.acquisitions.load(Ordering::Relaxed),
            (THREADS * OPS) as u64,
            "{name}: acquisition count off"
        );
        assert_eq!(s.underflows.load(Ordering::Relaxed), 0, "{name}: underflow");
        assert_eq!(
            backend.live_waiter_nodes(),
            0,
            "{name}: leaked waiter nodes"
        );
        assert!(!backend.waiter_summary(), "{name}: summary left published");
    }
}

/// Targeted lost-wakeup regression: a releaser decrements while a waiter
/// is between its admission re-check and its park. The claim-based
/// release protocol (summary bit in the count word + per-node handoff)
/// must never let the notification slip into that window; if it does,
/// the ping-pong below deadlocks and the watchdog channel times out.
#[test]
fn release_wakeup_is_never_lost() {
    const ROUNDS: usize = 3_000;
    for backend in conformance_mechs(1) {
        let backend = Arc::new(backend);
        let name = backend.backend();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let backend = Arc::clone(&backend);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        // Self-conflicting mode: exactly one thread in at a
                        // time; every release must wake the parked peer.
                        backend.lock(0, ConflictSet::new(&[0]));
                        assert!(backend.unlock(0));
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        drop(done_tx);
        for _ in 0..workers.len() {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    panic!("{name}: lost wakeup — ping-pong worker never finished")
                });
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(backend.held_total(), 0);
        assert_eq!(backend.live_waiter_nodes(), 0, "{name}: leaked nodes");
        assert!(!backend.waiter_summary(), "{name}: stale summary");
    }
}

/// ABA regression for the tagged waiter-stack head: drive the 16-bit
/// generation tag through several full wraps with push/claim cycles,
/// then verify a multi-node chain pushed *at the wrap boundary* is still
/// claimed and notified in full. A broken tag scheme (e.g. tag reuse
/// making a stale CAS succeed) shows up as a cut chain — a node that
/// never gets notified — or a refcount leak.
#[test]
fn claim_stack_survives_tag_wraparound() {
    use semlock::stack::WaiterStack;
    let stack = WaiterStack::new();
    // 2^16 bumps per wrap; each empty push/claim cycle bumps twice.
    // 34_000 cycles ≈ 1.04 wraps; run past two boundaries to be sure.
    let start_tag = stack.tag();
    let mut wrapped = false;
    let mut prev_tag = start_tag;
    for _ in 0..70_000 {
        let n = stack.alloc();
        n.prepare();
        stack.push(&n);
        stack.claim().wake_all();
        let t = stack.tag();
        if t < prev_tag {
            wrapped = true;
            // The wrap boundary: push a 3-node chain and claim it while
            // the tag arithmetic is mid-wrap.
            let (a, b, c) = (stack.alloc(), stack.alloc(), stack.alloc());
            for n in [&a, &b, &c] {
                n.prepare();
                stack.push(n);
            }
            stack.claim().wake_all();
            // All three must have been notified — park would hang on a
            // stranded (cut-chain) node, so bound it.
            for n in [&a, &b, &c] {
                assert!(
                    n.park_for(Duration::from_secs(10)),
                    "node missed its wakeup across the tag wrap"
                );
            }
        }
        prev_tag = t;
    }
    assert!(wrapped, "tag never wrapped — bump arithmetic changed?");
    assert!(stack.is_empty());
    assert_eq!(stack.live_nodes(), 0, "leaked nodes across the wrap");
}

/// `WaitBudget::DontWait` regression: a failing `try_lock` must be a
/// side-effect-free probe on every representation. The earlier packed
/// implementation routed it through the waiting path and transiently
/// published the WAITERS bit, which a concurrent releaser could consume
/// — waking nobody and losing the real waiter's handoff. Here a real
/// waiter parks, then a barrage of failing probes runs; the waiter's
/// published summary (waiter bit for the word layouts, the registered
/// waiter count for the wide counters) must survive untouched and the
/// waiter must still be woken by the actual release.
#[test]
fn dontwait_probe_is_side_effect_free() {
    // Two modes in mutual (but not self) conflict: the holder takes 0,
    // the waiter parks on 1, probes hammer 1.
    for backend in conformance_mechs(2) {
        let backend = Arc::new(backend);
        let name = backend.backend();
        backend.lock(0, ConflictSet::new(&[1]));
        let waiter = {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || {
                backend.lock(1, ConflictSet::new(&[0]));
                assert!(backend.unlock(1));
            })
        };
        // Wait until the waiter has actually published its node + bit.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !backend.waiter_summary() {
            assert!(Instant::now() < deadline, "{name}: waiter never parked");
            std::thread::yield_now();
        }
        for _ in 0..10_000 {
            assert!(
                !backend.try_lock(1, ConflictSet::new(&[0])),
                "{name}: probe admitted against a held conflict"
            );
            assert!(
                backend.waiter_summary(),
                "{name}: failing DontWait probe disturbed the waiter summary"
            );
        }
        assert!(backend.unlock(0));
        waiter.join().unwrap();
        assert_eq!(backend.held_total(), 0);
        assert_eq!(backend.live_waiter_nodes(), 0, "{name}: leaked nodes");
        assert!(!backend.waiter_summary(), "{name}: stale summary");
    }
}

/// A 16-mode partition — previously forced onto the counters-under-mutex
/// wide path — runs lock-free on the Dwcas word under `Auto` wherever
/// cmpxchg16b serves it, with modes spread across both 64-bit halves.
#[test]
fn sixteen_mode_partition_is_lock_free_under_auto() {
    use std::sync::atomic::Ordering;
    const THREADS: usize = 4;
    const OPS: usize = 1_500;
    let modes = 16usize;
    let mech = Arc::new(Mech::new(modes, WaitStrategy::Block));
    if semlock::dwcas::dwcas_available() {
        assert_eq!(
            mech.backend(),
            AdmissionBackend::Dwcas,
            "Auto left 16 modes wide"
        );
    } else {
        assert_eq!(mech.backend(), AdmissionBackend::Wide);
    }
    let conflicts = Arc::new(conflict_lists(modes, 0xD1CE));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mech = Arc::clone(&mech);
            let conflicts = Arc::clone(&conflicts);
            scope.spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::SmallRng::seed_from_u64(t as u64 ^ 0xABCD);
                for _ in 0..OPS {
                    // Bias towards the cross-half modes (7, 8, 15) so the
                    // high and low words of the DWCAS both churn.
                    let m = match rng.gen_range(0..6) {
                        0 => 7u32,
                        1 => 8,
                        2 => 15,
                        _ => rng.gen_range(0..modes) as u32,
                    };
                    mech.lock(m, ConflictSet::new(&conflicts[m as usize]));
                    assert!(mech.unlock(m));
                }
            });
        }
    });
    assert_eq!(mech.held_total(), 0);
    assert_eq!(
        mech.stats().acquisitions.load(Ordering::Relaxed),
        (THREADS * OPS) as u64
    );
    assert_eq!(mech.live_waiter_nodes(), 0);
    assert!(!mech.waiter_summary());
}

// ---------------------------------------------------------------------
// The unified acquisition API, exercised over every representation.
// ---------------------------------------------------------------------

fn table() -> (Arc<ModeTable>, LockSiteId) {
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

/// One `SemLock` per representation (plus `Auto`), skipping words whose
/// mode ceiling the table's largest partition exceeds.
fn locks_for_all_backends(t: &Arc<ModeTable>) -> Vec<SemLock> {
    let largest = t.partition_sizes().iter().copied().max().unwrap_or(0) as usize;
    std::iter::once(AdmissionBackend::Auto)
        .chain(AdmissionBackend::CONCRETE)
        .filter(|&b| serves(b, largest))
        .map(|b| SemLock::with_backend(t.clone(), WaitStrategy::Block, b))
        .collect()
}

#[test]
fn acquire_spec_equivalences_hold_on_all_backends() {
    let (t, site) = table();
    let m = t.select(site, &[Value(3)]); // self-conflicting mode
    for lock in locks_for_all_backends(&t) {
        // Forever == lv.
        let mut txn = semlock::Txn::new();
        txn.acquire(&lock, &AcquireSpec::new(m)).unwrap();
        assert_eq!(txn.held_mode(&lock), Some(m));
        // Skip rule applies whatever the budget.
        txn.acquire(&lock, &AcquireSpec::new(m).no_wait()).unwrap();
        assert_eq!(txn.held_count(), 1);

        // DontWait == try_lv: zero-wait timeout on conflict.
        let mut other = semlock::Txn::new();
        let err = other
            .acquire(&lock, &AcquireSpec::new(m).no_wait())
            .unwrap_err();
        assert!(
            matches!(err, LockError::Timeout { waited, .. } if waited == Duration::ZERO),
            "{err}"
        );

        // Until == lv_deadline: bounded wait, then a timeout carrying the
        // waited duration.
        let start = Instant::now();
        let err = other
            .acquire(
                &lock,
                &AcquireSpec::new(m).timeout(Duration::from_millis(25)),
            )
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }), "{err}");
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(other.held_count(), 0);

        drop(txn);
        assert_eq!(lock.total_holds(), 0);
    }
}

#[test]
fn acquire_reports_poison_on_all_backends() {
    let (t, site) = table();
    let m = t.select(site, &[Value(1)]);
    for lock in locks_for_all_backends(&t) {
        lock.poison();
        for spec in [
            AcquireSpec::new(m),
            AcquireSpec::new(m).no_wait(),
            AcquireSpec::new(m).timeout(Duration::from_millis(10)),
        ] {
            let mut txn = semlock::Txn::new();
            let err = txn.acquire(&lock, &spec).unwrap_err();
            assert!(err.is_poisoned(), "{spec:?}: {err}");
            assert_eq!(txn.held_count(), 0);
        }
        lock.clear_poison();
        let mut txn = semlock::Txn::new();
        txn.acquire(&lock, &AcquireSpec::new(m)).unwrap();
        drop(txn);
        assert_eq!(lock.total_holds(), 0);
    }
}

#[test]
fn no_watchdog_spec_still_times_out_but_never_aborts() {
    // Two transactions in a genuine cycle, both opted out of the
    // watchdog: neither may be chosen as a deadlock victim — both must
    // escape through their deadlines instead.
    let (t, site) = table();
    let a = Arc::new(SemLock::new(t.clone()));
    let b = Arc::new(SemLock::new(t.clone()));
    let m = t.select(site, &[Value(3)]);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let mk = |hold: Arc<SemLock>, want: Arc<SemLock>, gate: Arc<std::sync::Barrier>| {
        std::thread::spawn(move || {
            let mut txn = semlock::Txn::new();
            txn.acquire(&hold, &AcquireSpec::new(m)).unwrap();
            gate.wait();
            let res = txn.acquire(
                &want,
                &AcquireSpec::new(m)
                    .timeout(Duration::from_millis(300))
                    .no_watchdog(),
            );
            drop(txn);
            res
        })
    };
    let h1 = mk(a.clone(), b.clone(), gate.clone());
    let h2 = mk(b.clone(), a.clone(), gate.clone());
    let r1 = h1.join().unwrap();
    let r2 = h2.join().unwrap();
    for r in [&r1, &r2] {
        if let Err(e) = r {
            assert!(
                matches!(e, LockError::Timeout { .. }),
                "opted-out waiter must only ever time out, got {e}"
            );
        }
    }
    assert!(
        r1.is_err() || r2.is_err(),
        "a genuine cycle cannot resolve without at least one timeout"
    );
    assert_eq!(a.total_holds() + b.total_holds(), 0);
}

#[test]
fn standalone_semlock_acquire_mirrors_lock_variants() {
    let (t, site) = table();
    let m = t.select(site, &[Value(3)]);
    for lock in locks_for_all_backends(&t) {
        lock.acquire(&AcquireSpec::new(m)).unwrap();
        let err = lock.acquire(&AcquireSpec::new(m).no_wait()).unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }));
        let err = lock
            .acquire(&AcquireSpec::new(m).timeout(Duration::from_millis(20)))
            .unwrap_err();
        assert!(matches!(err, LockError::Timeout { .. }));
        lock.unlock(m);
        assert_eq!(lock.total_holds(), 0);
    }
}
