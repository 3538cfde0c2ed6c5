//! Bounded exhaustive checking of the `Mech` admission protocol, plus
//! litmus sanity tests of the visibility model itself.
//!
//! The headline test is `every_seeded_ordering_mutant_is_detected`: for
//! each `semlock::mech::ORDERING_AUDIT` entry that declares a weakened
//! mutant ordering, running the protocol scenarios with that single site
//! weakened must produce a counterexample (an assertion failure or a
//! lost-wakeup deadlock), while the unmutated profile passes the very
//! same scenarios. CI fails if any mutant survives.

use model::mech_model::{Admitted, ModelWord, OrderingProfile, PackedMech, WideMech, WordMech};
use model::sync::{thread, AtomicU128, AtomicU64, Ordering};
use model::{Checker, Stats, Violation, ViolationKind};
use semlock::mech::{conflict_mask, WordInt};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Probe budget of every scenario's mechanisms: one re-try between the
/// refused first attempt and the park path. The runtime's 32 only repeat
/// the same step from the same states.
const PROBES: u32 = 1;

/// Probe budget of the two scenarios about the waiter *stack*
/// (`stack_two_waiter_scenario`, `stack_window_pusher_scenario`). Their
/// subject is what happens once two waiters are on the park path; a
/// re-try on the way there is one more `try_admit` from states the
/// first attempt already reaches, and at their preemption bound of 2 it
/// doubles a two-minute exploration. The probe phase itself is covered by
/// every other scenario.
const STACK_PROBES: u32 = 0;

/// Preemption bound for the 3-thread scenarios. The default of 1 keeps
/// the everyday `cargo test` run fast; the CI `model-check` job sets
/// `MODEL_THREE_THREAD_PREEMPTION_BOUND=2` for the deeper sweep.
fn three_thread_bound() -> usize {
    std::env::var("MODEL_THREE_THREAD_PREEMPTION_BOUND")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------
// Litmus tests: the memory model itself behaves like C++11 on the
// classic shapes.
// ---------------------------------------------------------------------

#[test]
fn litmus_message_passing_release_acquire_passes() {
    Checker::new()
        .check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(1, Ordering::Relaxed);
                f2.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(
                    data.load(Ordering::Relaxed),
                    1,
                    "MP: stale data after acquire"
                );
            }
            t.join();
        })
        .expect("release/acquire message passing must have no stale read");
}

#[test]
fn litmus_message_passing_relaxed_is_refuted() {
    let v = Checker::new()
        .check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicU64::new(0));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(1, Ordering::Relaxed);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 1, "MP: stale data");
            }
            t.join();
        })
        .expect_err("relaxed message passing must exhibit the stale read");
    assert!(
        matches!(v.kind, ViolationKind::Panic(_)),
        "expected an assertion counterexample, got {v}"
    );
}

#[test]
fn litmus_store_buffering_seqcst_forbids_both_zero() {
    Checker::new()
        .check(|| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (x.clone(), y.clone());
            let (x2, y2) = (x.clone(), y.clone());
            let t1 = thread::spawn(move || {
                x1.store(1, Ordering::SeqCst);
                y1.load(Ordering::SeqCst)
            });
            let t2 = thread::spawn(move || {
                y2.store(1, Ordering::SeqCst);
                x2.load(Ordering::SeqCst)
            });
            let (r1, r2) = (t1.join(), t2.join());
            assert!(r1 == 1 || r2 == 1, "SB: both threads read 0 under SeqCst");
        })
        .expect("SeqCst store buffering must never read 0/0");
}

#[test]
fn litmus_store_buffering_relaxed_observes_both_zero() {
    let v = Checker::new()
        .check(|| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (x.clone(), y.clone());
            let (x2, y2) = (x.clone(), y.clone());
            let t1 = thread::spawn(move || {
                x1.store(1, Ordering::Relaxed);
                y1.load(Ordering::Relaxed)
            });
            let t2 = thread::spawn(move || {
                y2.store(1, Ordering::Relaxed);
                x2.load(Ordering::Relaxed)
            });
            let (r1, r2) = (t1.join(), t2.join());
            assert!(r1 == 1 || r2 == 1, "SB: both threads read 0");
        })
        .expect_err("relaxed store buffering must exhibit 0/0");
    assert!(matches!(v.kind, ViolationKind::Panic(_)), "got {v}");
}

// ---------------------------------------------------------------------
// Protocol scenarios, parameterized by ordering profile so the same
// code proves the shipped protocol and refutes every mutant.
// ---------------------------------------------------------------------

/// Two threads take cross-conflicting modes `lo` and `hi` of one
/// admission word and each increments a plain (Relaxed) data cell inside
/// the critical section. Checks admission exclusivity (an in-CS
/// counter), visibility (no lost update), release refusal of double
/// unlock, and count balance.
fn word_exclusivity_scenario<W: ModelWord>(
    profile: OrderingProfile,
    lo: u32,
    hi: u32,
) -> Result<Stats, Box<Violation>> {
    Checker::new().preemption_bound(3).check(move || {
        let mech = WordMech::<W>::new(profile, PROBES);
        let data = Arc::new(AtomicU64::new(0));
        let in_cs = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = [(lo, hi), (hi, lo)]
            .into_iter()
            .map(|(local, other)| {
                let mech = mech.clone();
                let data = data.clone();
                let in_cs = in_cs.clone();
                thread::spawn(move || {
                    mech.lock(local, conflict_mask(&[other]));
                    assert_eq!(
                        in_cs.fetch_add(1, Ordering::Relaxed),
                        0,
                        "conflicting modes held concurrently"
                    );
                    let v = data.load(Ordering::Relaxed);
                    data.store(v + 1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::Relaxed);
                    assert!(mech.unlock(local), "balanced release refused");
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(
            data.load(Ordering::Relaxed),
            2,
            "lost update across releases"
        );
        assert_eq!(
            mech.word(),
            W::Int::ZERO,
            "counts unbalanced after all releases"
        );
        assert!(!mech.unlock(lo), "double unlock must be refused");
    })
}

/// Main holds mode `lo`, a spawned waiter wants the conflicting `hi`;
/// main releases while the waiter may be probing or parking. Any schedule
/// in which the waiter stays parked after the release is a lost wakeup,
/// reported as a model deadlock.
fn word_lost_wakeup_scenario<W: ModelWord>(
    profile: OrderingProfile,
    lo: u32,
    hi: u32,
) -> Result<Stats, Box<Violation>> {
    Checker::new().preemption_bound(3).check(move || {
        let mech = WordMech::<W>::new(profile, PROBES);
        mech.lock(lo, conflict_mask(&[hi]));
        let m2 = mech.clone();
        let waiter = thread::spawn(move || {
            m2.lock(hi, conflict_mask(&[lo]));
            assert!(m2.unlock(hi));
        });
        assert!(mech.unlock(lo));
        waiter.join();
        assert_eq!(mech.word(), W::Int::ZERO);
    })
}

// The generic scenarios at each width. The Dwcas pair puts its two modes
// in *different 64-bit halves* (0 and 15) so a torn or half-stale
// double-word update cannot hide.

fn packed_exclusivity_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    word_exclusivity_scenario::<AtomicU64>(profile, 0, 1)
}

fn packed_lost_wakeup_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    word_lost_wakeup_scenario::<AtomicU64>(profile, 0, 1)
}

fn dwcas_exclusivity_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    word_exclusivity_scenario::<AtomicU128>(profile, 0, 15)
}

fn dwcas_lost_wakeup_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    word_lost_wakeup_scenario::<AtomicU128>(profile, 0, 15)
}

/// The same handoff shape on the wide (per-mode counter) mechanism,
/// whose release/park protocol is the store-buffering pair the SeqCst
/// sites exist for.
fn wide_lost_wakeup_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    Checker::new().preemption_bound(3).check(move || {
        let mech = WideMech::new(2, profile, PROBES);
        mech.lock(0, &[1]);
        let m2 = mech.clone();
        let waiter = thread::spawn(move || {
            m2.lock(1, &[0]);
            assert!(m2.unlock(1));
        });
        assert!(mech.unlock(0));
        waiter.join();
        assert_eq!(mech.count(0), 0);
        assert_eq!(mech.count(1), 0);
        assert!(!mech.unlock(1), "double unlock must be refused");
    })
}

/// Exclusivity and visibility through the wide counters: two threads on
/// mutually conflicting modes increment a plain data cell in their
/// critical sections; no schedule may admit both at once or lose an
/// update across the releases.
fn wide_exclusivity_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    Checker::new().preemption_bound(3).check(move || {
        let mech = WideMech::new(2, profile, PROBES);
        let data = Arc::new(AtomicU64::new(0));
        let in_cs = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = [(0u32, 1u32), (1u32, 0u32)]
            .into_iter()
            .map(|(local, other)| {
                let mech = mech.clone();
                let data = data.clone();
                let in_cs = in_cs.clone();
                thread::spawn(move || {
                    mech.lock(local, &[other]);
                    assert_eq!(
                        in_cs.fetch_add(1, Ordering::Relaxed),
                        0,
                        "conflicting wide modes held concurrently"
                    );
                    let v = data.load(Ordering::Relaxed);
                    data.store(v + 1, Ordering::Relaxed);
                    in_cs.fetch_sub(1, Ordering::Relaxed);
                    assert!(mech.unlock(local), "balanced release refused");
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(
            data.load(Ordering::Relaxed),
            2,
            "lost update across releases"
        );
        assert_eq!(mech.count(0), 0, "counts unbalanced after all releases");
        assert_eq!(mech.count(1), 0, "counts unbalanced after all releases");
        assert_eq!(mech.waiters(), 0, "a waiter registration was left behind");
        assert!(!mech.unlock(0), "double unlock must be refused");
    })
}

/// The probe phase on the admission word: main holds mode 0 and releases
/// while the waiter is somewhere between its refused first attempt and
/// the park path. Whenever the waiter is admitted without parking it must
/// have published nothing — no node allocated (so none pushed and the
/// summary bit, set only after a push, never set) — and main's release
/// must have balanced the word all the same. `probing` records that some
/// schedule really admits in the probe phase.
fn packed_probe_drain_scenario(
    profile: OrderingProfile,
    probing: Arc<AtomicBool>,
) -> Result<Stats, Box<Violation>> {
    Checker::new().preemption_bound(3).check(move || {
        let mech = PackedMech::new(profile, PROBES);
        mech.lock(0, conflict_mask(&[1]));
        let m2 = mech.clone();
        let waiter = thread::spawn(move || {
            let how = m2.lock(1, conflict_mask(&[0]));
            if how != Admitted::Parked {
                assert_eq!(m2.nodes_allocated(), 0, "{how:?} admission pushed a node");
            }
            assert!(m2.unlock(1));
            how
        });
        assert!(mech.unlock(0));
        let how = waiter.join();
        if how == Admitted::Probing {
            probing.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        if how != Admitted::Parked {
            assert_eq!(mech.nodes_allocated(), 0);
        }
        assert_eq!(mech.word(), 0, "counts or summary bit left behind");
    })
}

/// The same drain-during-the-probe-phase shape on the wide counters: an
/// admission that did not park never registered as a waiter.
fn wide_probe_drain_scenario(
    profile: OrderingProfile,
    probing: Arc<AtomicBool>,
) -> Result<Stats, Box<Violation>> {
    Checker::new().preemption_bound(3).check(move || {
        let mech = WideMech::new(2, profile, PROBES);
        mech.lock(0, &[1]);
        let m2 = mech.clone();
        let waiter = thread::spawn(move || {
            let how = m2.lock(1, &[0]);
            assert!(m2.unlock(1));
            how
        });
        assert!(mech.unlock(0));
        if waiter.join() == Admitted::Probing {
            probing.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        assert_eq!(mech.count(0), 0);
        assert_eq!(mech.count(1), 0);
        assert_eq!(mech.waiters(), 0, "a waiter registration was left behind");
    })
}

/// Two waiters park behind one holder, so the claimed batch is a real
/// *chain*: main holds mode 0; both waiters want mode 1 (conflicting
/// with 0, commuting with itself). A weakened push or claim CAS lets the
/// claimer read a stale `next` pointer, cutting the chain — the deeper
/// waiter's node is removed from the stack but never notified, which no
/// later release can repair: a permanent deadlock the checker reports.
fn stack_two_waiter_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    // The chain-cut counterexample needs two preemptions (one waiter
    // stopped between its push and its fetch_or, plus the handoff racing
    // it), so this scenario never runs below bound 2.
    Checker::new()
        .preemption_bound(three_thread_bound().max(2))
        .check(move || {
            let mech = PackedMech::new(profile, STACK_PROBES);
            let released = Arc::new(AtomicU64::new(0));
            mech.lock(0, conflict_mask(&[1]));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let mech = mech.clone();
                    let released = released.clone();
                    thread::spawn(move || {
                        mech.lock(1, conflict_mask(&[0]));
                        // Visibility: admission happens-after the release
                        // that freed mode 0, so the pre-release store is
                        // visible even through a Relaxed load.
                        assert_eq!(
                            released.load(Ordering::Relaxed),
                            1,
                            "admitted before the conflicting release was visible"
                        );
                        assert!(mech.unlock(1));
                    })
                })
                .collect();
            released.store(1, Ordering::Relaxed);
            assert!(mech.unlock(0));
            for w in waiters {
                w.join();
            }
            assert_eq!(mech.word(), 0, "counts unbalanced after all releases");
        })
}

/// The clear↔claim window: main holds modes 0 **and** 1 (commuting with
/// each other), two waiters want mode 2 (conflicting with both). A
/// waiter that pushes and sets the summary bit while `main.unlock(0)`'s
/// handoff is in flight must end up either in that handoff's claimed
/// batch or with the bit still set for `main.unlock(1)` to hand off —
/// clearing *before* claiming guarantees exactly this (the `fetch_or`
/// and the clear are totally ordered RMWs on one word), which is the
/// invariant this scenario pins. Its historical claim-then-clear
/// counterpart strands the window waiter: the checker found the
/// counterexample and forced the reorder.
fn stack_window_pusher_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    // Like the two-waiter chain-cut, the interesting interleavings put a
    // pusher inside an in-flight handoff; keep at least bound 2.
    Checker::new()
        .preemption_bound(three_thread_bound().max(2))
        .check(move || {
            let mech = PackedMech::new(profile, STACK_PROBES);
            mech.lock(0, conflict_mask(&[2]));
            mech.lock(1, conflict_mask(&[2]));
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let mech = mech.clone();
                    thread::spawn(move || {
                        mech.lock(2, conflict_mask(&[0, 1]));
                        assert!(mech.unlock(2));
                    })
                })
                .collect();
            assert!(mech.unlock(0));
            assert!(mech.unlock(1));
            for w in waiters {
                w.join();
            }
            assert_eq!(mech.word(), 0, "counts unbalanced after all releases");
        })
}

/// Three threads on the packed word: two cross-conflicting modes plus a
/// second holder of mode 0 (self-commuting), under a preemption bound
/// (see [`three_thread_bound`]).
fn packed_three_thread_scenario(profile: OrderingProfile) -> Result<Stats, Box<Violation>> {
    Checker::new()
        .preemption_bound(three_thread_bound())
        .check(move || {
            let mech = PackedMech::new(profile, PROBES);
            let in_cs = Arc::new(AtomicU64::new(0));
            let specs = [(0u32, 1u32), (0u32, 1u32), (1u32, 0u32)];
            let handles: Vec<_> = specs
                .into_iter()
                .map(|(local, other)| {
                    let mech = mech.clone();
                    let in_cs = in_cs.clone();
                    thread::spawn(move || {
                        mech.lock(local, conflict_mask(&[other]));
                        // Mode 1 excludes both mode-0 holders; mode 0 only
                        // excludes mode 1, so encode holders as bit fields.
                        let token = 1u64 << (8 * local);
                        let seen = in_cs.fetch_add(token, Ordering::Relaxed);
                        if local == 1 {
                            assert_eq!(seen, 0, "mode 1 admitted alongside a holder");
                        } else {
                            assert_eq!(seen >> 8, 0, "mode 0 admitted alongside mode 1");
                        }
                        in_cs.fetch_sub(token, Ordering::Relaxed);
                        assert!(mech.unlock(local));
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(mech.word(), 0);
        })
}

#[test]
fn packed_admission_is_exclusive_and_visible() {
    let stats = packed_exclusivity_scenario(OrderingProfile::default())
        .expect("shipped packed protocol must pass exclusivity/visibility");
    assert!(
        stats.schedules > 100,
        "exploration suspiciously small: {stats:?}"
    );
}

#[test]
fn packed_release_never_loses_a_wakeup() {
    packed_lost_wakeup_scenario(OrderingProfile::default())
        .expect("shipped packed protocol must not lose wakeups");
}

#[test]
fn wide_release_never_loses_a_wakeup() {
    wide_lost_wakeup_scenario(OrderingProfile::default())
        .expect("shipped wide protocol must not lose wakeups");
}

#[test]
fn wide_admission_is_exclusive_and_visible() {
    let stats = wide_exclusivity_scenario(OrderingProfile::default())
        .expect("shipped wide protocol must pass exclusivity/visibility");
    assert!(
        stats.schedules > 100,
        "exploration suspiciously small: {stats:?}"
    );
}

#[test]
fn conflict_draining_during_the_probe_phase_admits_without_publishing() {
    let probing = Arc::new(AtomicBool::new(false));
    packed_probe_drain_scenario(OrderingProfile::default(), probing.clone())
        .expect("a probe-phase admission on the word must publish nothing");
    assert!(
        probing.load(std::sync::atomic::Ordering::Relaxed),
        "no schedule admitted in the word's probe phase"
    );
    let probing = Arc::new(AtomicBool::new(false));
    wide_probe_drain_scenario(OrderingProfile::default(), probing.clone())
        .expect("a probe-phase admission on the wide counters must register no waiter");
    assert!(
        probing.load(std::sync::atomic::Ordering::Relaxed),
        "no schedule admitted in the wide probe phase"
    );
}

#[test]
fn packed_three_thread_admission_is_exclusive() {
    packed_three_thread_scenario(OrderingProfile::default())
        .expect("shipped packed protocol must pass the 3-thread scenario");
}

#[test]
fn dwcas_admission_is_exclusive_and_visible() {
    let stats = dwcas_exclusivity_scenario(OrderingProfile::default())
        .expect("shipped dwcas protocol must pass exclusivity/visibility");
    assert!(
        stats.schedules > 100,
        "exploration suspiciously small: {stats:?}"
    );
}

#[test]
fn dwcas_release_never_loses_a_wakeup() {
    dwcas_lost_wakeup_scenario(OrderingProfile::default())
        .expect("shipped dwcas protocol must not lose wakeups");
}

#[test]
fn claim_stack_wakes_the_whole_chain() {
    stack_two_waiter_scenario(OrderingProfile::default())
        .expect("shipped claim-stack protocol must wake every chained waiter");
}

#[test]
fn claim_stack_never_strands_window_pushers() {
    stack_window_pusher_scenario(OrderingProfile::default())
        .expect("shipped claim-stack protocol must not strand a clear\u{2194}claim window pusher");
}

// ---------------------------------------------------------------------
// Mutant detection.
// ---------------------------------------------------------------------

fn is_counterexample(v: &Violation) -> bool {
    matches!(v.kind, ViolationKind::Panic(_) | ViolationKind::Deadlock(_))
}

/// Every seeded ordering mutant from `ORDERING_AUDIT` must be refuted by
/// at least one scenario. A surviving mutant means either the protocol
/// does not actually need the audited ordering or the model lost the
/// power to see the difference — both are build-stopping.
#[test]
fn every_seeded_ordering_mutant_is_detected() {
    let mutants = OrderingProfile::mutants();
    assert!(
        mutants.len() >= 9,
        "ORDERING_AUDIT must seed at least 9 mutants, found {}",
        mutants.len()
    );
    let mut survivors = Vec::new();
    for (site, profile) in &mutants {
        // Lazily try the scenarios exercising the mutated path first: a
        // caught mutant fails fast, while a scenario that *passes* under
        // a mutant costs a full exploration we can usually skip.
        type Scenario = fn(OrderingProfile) -> Result<Stats, Box<Violation>>;
        let mut scenarios: Vec<Scenario> = if site.starts_with("wide.") {
            vec![wide_lost_wakeup_scenario, wide_exclusivity_scenario]
        } else if site.starts_with("stack.") {
            vec![
                stack_two_waiter_scenario,
                stack_window_pusher_scenario,
                packed_lost_wakeup_scenario,
            ]
        } else {
            vec![packed_exclusivity_scenario, packed_lost_wakeup_scenario]
        };
        // Fall back to the full battery so a misclassified mutant still
        // gets every chance to be refuted before counting as a survivor
        // (lazy `any` means the extras only run when the targeted
        // scenarios all passed).
        scenarios.extend([
            packed_exclusivity_scenario,
            packed_lost_wakeup_scenario,
            dwcas_exclusivity_scenario,
            dwcas_lost_wakeup_scenario,
            stack_two_waiter_scenario,
            stack_window_pusher_scenario,
            wide_lost_wakeup_scenario,
            wide_exclusivity_scenario,
            packed_three_thread_scenario,
        ] as [Scenario; 9]);
        let caught = scenarios
            .into_iter()
            .filter_map(|s| s(*profile).err())
            .any(|v| is_counterexample(&v));
        if !caught {
            survivors.push(*site);
        }
    }
    assert!(
        survivors.is_empty(),
        "ordering mutants survived bounded model checking: {survivors:?}"
    );
}

/// The word's audited sites are shared by both widths (the protocol is
/// one generic function), so each width's scenarios must refute every
/// `word.*` mutant *on their own* — otherwise one width is riding on the
/// other's evidence.
#[test]
fn word_site_mutants_fall_at_both_widths() {
    type Scenario = fn(OrderingProfile) -> Result<Stats, Box<Violation>>;
    let widths: [(&str, [Scenario; 2]); 2] = [
        (
            "packed",
            [packed_exclusivity_scenario, packed_lost_wakeup_scenario],
        ),
        (
            "dwcas",
            [dwcas_exclusivity_scenario, dwcas_lost_wakeup_scenario],
        ),
    ];
    let mut checked = 0;
    let mut survivors = Vec::new();
    for (site, profile) in OrderingProfile::mutants() {
        if !site.starts_with("word.") {
            continue;
        }
        checked += 1;
        for (width, scenarios) in &widths {
            let caught = scenarios
                .iter()
                .filter_map(|s| s(profile).err())
                .any(|v| is_counterexample(&v));
            if !caught {
                survivors.push((site, *width));
            }
        }
    }
    assert_eq!(checked, 2, "expected both word CAS sites to seed mutants");
    assert!(
        survivors.is_empty(),
        "word-site mutants survived at one width: {survivors:?}"
    );
}

/// Every `wide.*` mutant must be refuted by the wide scenarios alone —
/// they are the only transcription that runs on those four sites.
#[test]
fn wide_site_mutants_fall_to_the_wide_scenarios() {
    let mut checked = 0;
    let mut survivors = Vec::new();
    for (site, profile) in OrderingProfile::mutants() {
        if !site.starts_with("wide.") {
            continue;
        }
        checked += 1;
        let caught = [wide_lost_wakeup_scenario, wide_exclusivity_scenario]
            .into_iter()
            .filter_map(|s| s(profile).err())
            .any(|v| is_counterexample(&v));
        if !caught {
            survivors.push(site);
        }
    }
    assert_eq!(checked, 4, "expected all four wide sites to seed mutants");
    assert!(
        survivors.is_empty(),
        "wide-site mutants survived the wide scenarios: {survivors:?}"
    );
}
