use super::ordering as ord;
use super::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Every test below runs against all three representations: the
/// packed single-word fast path, the 128-bit Dwcas word (native or
/// portable fallback, whichever this build carries), and the wide
/// counters-under-mutex fallback.
fn layouts() -> [AdmissionBackend; 3] {
    [
        AdmissionBackend::Packed,
        AdmissionBackend::Dwcas,
        AdmissionBackend::Wide,
    ]
}

/// Two modes that conflict with each other but not themselves — like
/// two halves of a read–write interaction.
fn cross_conflict() -> (Vec<u32>, Vec<u32>) {
    (vec![1], vec![0])
}

#[test]
fn auto_picks_the_representation_from_the_mode_count() {
    // The partition shapes the repo's workloads produce (1: every
    // `cia_*` partition, 2: cache, 8: intruder, 9: gossip, 44: graph,
    // 592: every `server_*` shard) and the two limits' neighbours.
    // 9..=16 modes: the Dwcas word — when this build+machine serves
    // it lock-free; the wide counters otherwise.
    let mid = if crate::dwcas::dwcas_available() {
        AdmissionBackend::Dwcas
    } else {
        AdmissionBackend::Wide
    };
    for (modes, expected) in [
        (1, AdmissionBackend::Packed),
        (2, AdmissionBackend::Packed),
        (8, AdmissionBackend::Packed),
        (9, mid),
        (16, mid),
        (17, AdmissionBackend::Wide),
        (44, AdmissionBackend::Wide),
        (592, AdmissionBackend::Wide),
    ] {
        assert_eq!(
            Mech::new(modes, WaitStrategy::Block).backend(),
            expected,
            "{modes} modes"
        );
    }
}

#[test]
fn compatible_modes_acquire_concurrently() {
    for layout in layouts() {
        let m = Mech::with_backend(2, WaitStrategy::Block, layout);
        // Mode 0 conflicts with nothing here.
        m.lock(0, ConflictSet::new(&[]));
        m.lock(0, ConflictSet::new(&[]));
        assert_eq!(m.count(0), 2);
        assert!(m.unlock(0));
        assert!(m.unlock(0));
        assert_eq!(m.count(0), 0);
    }
}

#[test]
fn self_conflicting_mode_is_exclusive() {
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        m.lock(0, ConflictSet::new(&[0]));
        assert!(!m.try_lock(0, ConflictSet::new(&[0])));
        assert!(m.unlock(0));
        assert!(m.try_lock(0, ConflictSet::new(&[0])));
        assert!(m.unlock(0));
    }
}

#[test]
fn conflicting_mode_blocks_until_release() {
    for layout in layouts() {
        let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
        let (c0, c1) = cross_conflict();
        m.lock(0, ConflictSet::new(&c0));
        let got = Arc::new(AtomicBool::new(false));
        let t = {
            let m = m.clone();
            let got = got.clone();
            let c1 = c1.clone();
            std::thread::spawn(move || {
                m.lock(1, ConflictSet::new(&c1));
                got.store(true, Ordering::SeqCst);
                assert!(m.unlock(1));
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!got.load(Ordering::SeqCst), "mode 1 admitted while 0 held");
        assert!(m.unlock(0));
        t.join().unwrap();
        assert!(got.load(Ordering::SeqCst));
    }
}

#[test]
fn refused_lock_probes_then_parks_and_counts_once() {
    for layout in layouts() {
        let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
        let (c0, c1) = cross_conflict();
        assert!(m.try_lock(0, ConflictSet::new(&c0)));
        let waiter = {
            let m = m.clone();
            std::thread::spawn(move || {
                let waited = m.lock(1, ConflictSet::new(&c1));
                assert!(m.unlock(1));
                waited
            })
        };
        // The conflict outlives the probe budget, so the waiter must
        // publish itself (summary bit / waiter count) and park; only
        // then does the holder release.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !m.waiter_summary() {
            assert!(Instant::now() < deadline, "{layout:?}: waiter never parked");
            std::thread::yield_now();
        }
        assert_eq!(
            m.count(1),
            0,
            "{layout:?}: admitted against a held conflict"
        );
        assert!(m.unlock(0));
        assert!(
            waiter.join().unwrap(),
            "{layout:?}: refused lock reported no wait"
        );
        assert_eq!(m.held_total(), 0, "{layout:?}");
        assert_eq!(m.stats().acquisitions.load(Ordering::Relaxed), 2);
        assert_eq!(m.stats().contended.load(Ordering::Relaxed), 1);
        assert_eq!(m.live_waiter_nodes(), 0, "{layout:?}: waiter nodes leaked");
        assert!(!m.waiter_summary(), "{layout:?}: summary left published");
    }
}

#[test]
fn uncontended_lock_is_one_attempt() {
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        assert!(!m.lock(0, ConflictSet::new(&[0])), "{layout:?}");
        assert!(
            !m.waiter_summary(),
            "{layout:?}: a free mode published a waiter"
        );
        assert!(m.unlock(0));
        assert_eq!(m.stats().acquisitions.load(Ordering::Relaxed), 1);
        assert_eq!(m.stats().contended.load(Ordering::Relaxed), 0);
        assert_eq!(m.live_waiter_nodes(), 0, "{layout:?}");
    }
}

#[test]
fn spin_strategy_also_excludes() {
    for layout in layouts() {
        let m = Arc::new(Mech::with_backend(1, WaitStrategy::Spin, layout));
        m.lock(0, ConflictSet::new(&[0]));
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            m2.lock(0, ConflictSet::new(&[0]));
            assert!(m2.unlock(0));
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(m.unlock(0));
        t.join().unwrap();
        assert_eq!(m.count(0), 0);
    }
}

#[test]
fn stress_mutual_exclusion_invariant() {
    // Two cross-conflicting modes: counts must never both be positive.
    // We can't observe both atomically from outside, so instead each
    // thread asserts the other's count is zero while it holds its mode.
    // The last row puts the two modes in different 64-bit halves of the
    // Dwcas word — the shape a torn 2×64-bit update would get wrong.
    let rows = layouts()
        .map(|layout| (layout, 2, [0u32, 1u32]))
        .into_iter()
        .chain([(AdmissionBackend::Dwcas, 16, [0, 15])]);
    for (layout, modes, pair) in rows {
        let m = Arc::new(Mech::with_backend(modes, WaitStrategy::Block, layout));
        let iters = 2_000;
        let mut handles = Vec::new();
        for (mode, other) in [(pair[0], pair[1]), (pair[1], pair[0])] {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let conflicts = [other];
                for _ in 0..iters {
                    m.lock(mode, ConflictSet::new(&conflicts));
                    assert_eq!(m.count(other), 0, "both modes held at once");
                    assert!(m.unlock(mode));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.held_total(), 0, "{layout:?}");
        assert_eq!(
            m.stats().acquisitions.load(Ordering::Relaxed),
            2 * iters as u64
        );
        // After any amount of contention, quiescence means: nothing
        // published, zero live waiter nodes (the claim sweeps stale ones).
        assert!(!m.waiter_summary(), "{layout:?}: summary left published");
        assert_eq!(m.live_waiter_nodes(), 0, "{layout:?}: waiter nodes leaked");
    }
}

#[test]
fn lock_deadline_times_out_and_counts() {
    for layout in layouts() {
        for strategy in [WaitStrategy::Block, WaitStrategy::Spin] {
            let m = Mech::with_backend(1, strategy, layout);
            m.lock(0, ConflictSet::new(&[0]));
            let start = std::time::Instant::now();
            let out = m.lock_deadline(
                0,
                ConflictSet::new(&[0]),
                start + Duration::from_millis(30),
                &mut || Wait::Continue,
            );
            assert_eq!(out, Acquire::TimedOut, "{strategy:?} {layout:?}");
            assert!(
                start.elapsed() >= Duration::from_millis(25),
                "{strategy:?} {layout:?}"
            );
            assert_eq!(m.stats().timeouts.load(Ordering::Relaxed), 1);
            assert_eq!(m.count(0), 1, "failed acquisition must not leak holds");
            assert!(m.unlock(0));
            assert_eq!(m.held_total(), 0);
        }
    }
}

#[test]
fn lock_deadline_acquires_uncontended_without_probing() {
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        let mut probed = false;
        let out = m.lock_deadline(
            0,
            ConflictSet::new(&[0]),
            std::time::Instant::now() + Duration::from_secs(1),
            &mut || {
                probed = true;
                Wait::Continue
            },
        );
        assert_eq!(out, Acquire::Acquired);
        assert!(!probed, "uncontended path must not consult the probe");
        assert!(m.unlock(0));
    }
}

#[test]
fn lock_deadline_succeeds_once_conflicting_mode_drains() {
    for layout in layouts() {
        let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
        let (c0, _) = cross_conflict();
        m.lock(0, ConflictSet::new(&c0));
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            m2.lock_deadline(
                1,
                ConflictSet::new(&[0]),
                std::time::Instant::now() + Duration::from_secs(5),
                &mut || Wait::Continue,
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(m.unlock(0));
        assert_eq!(t.join().unwrap(), Acquire::Acquired);
        assert!(m.unlock(1));
        assert_eq!(m.held_total(), 0);
    }
}

#[test]
fn lock_deadline_abandons_on_probe_request() {
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        m.lock(0, ConflictSet::new(&[0]));
        let out = m.lock_deadline(
            0,
            ConflictSet::new(&[0]),
            std::time::Instant::now() + Duration::from_secs(5),
            &mut || Wait::Abandon,
        );
        assert_eq!(out, Acquire::Abandoned);
        assert!(m.unlock(0));
        assert_eq!(m.held_total(), 0);
    }
}

#[test]
fn expired_deadline_fails_fast_without_parking_or_probing() {
    // Regression for retry storms: a caller whose deadline has already
    // passed must degrade to one failed admission attempt — no waiter
    // registration, no park slice, no watchdog probe.
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        m.lock(0, ConflictSet::new(&[0]));
        let mut probes = 0u32;
        let start = std::time::Instant::now();
        let out = m.lock_deadline(
            0,
            ConflictSet::new(&[0]),
            start - Duration::from_millis(1),
            &mut || {
                probes += 1;
                Wait::Continue
            },
        );
        assert_eq!(out, Acquire::TimedOut, "{layout:?}");
        assert_eq!(probes, 0, "{layout:?}: expired caller must not probe");
        assert!(
            start.elapsed() < PROBE_INTERVAL,
            "{layout:?}: expired caller slept a park slice ({:?})",
            start.elapsed()
        );
        assert_eq!(m.count(0), 1, "failed acquisition must not leak holds");
        assert_eq!(m.stats().timeouts.load(Ordering::Relaxed), 1, "{layout:?}");
        assert_eq!(m.stats().contended.load(Ordering::Relaxed), 0, "{layout:?}");
        assert!(!m.waiter_summary(), "{layout:?}: expired caller published");
        assert_eq!(
            m.live_waiter_nodes(),
            0,
            "{layout:?}: expired caller pushed"
        );
        assert!(m.unlock(0));
        assert_eq!(m.held_total(), 0);
    }
}

#[test]
fn expired_deadline_still_admits_when_uncontended() {
    // Admission beats an expired deadline: the fast-fail check sits
    // behind the initial admit attempt, so an uncontended caller whose
    // deadline lapsed still gets the mode.
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        let out = m.lock_deadline(
            0,
            ConflictSet::new(&[0]),
            std::time::Instant::now() - Duration::from_millis(1),
            &mut || Wait::Continue,
        );
        assert_eq!(out, Acquire::Acquired, "{layout:?}");
        assert!(m.unlock(0));
        assert_eq!(m.held_total(), 0);
    }
}

#[test]
fn sub_slice_deadline_times_out_before_the_probe_fires() {
    // A deadline shorter than PROBE_INTERVAL must wake on the deadline,
    // re-check it, and report TimedOut *without* first paying for a
    // watchdog probe (a global graph scan) past the deadline.
    for layout in layouts() {
        let m = Mech::with_backend(1, WaitStrategy::Block, layout);
        m.lock(0, ConflictSet::new(&[0]));
        let mut probes = 0u32;
        let start = std::time::Instant::now();
        let out = m.lock_deadline(
            0,
            ConflictSet::new(&[0]),
            start + Duration::from_micros(300),
            &mut || {
                probes += 1;
                Wait::Continue
            },
        );
        assert_eq!(out, Acquire::TimedOut, "{layout:?}");
        assert_eq!(
            probes, 0,
            "{layout:?}: post-wake deadline check must run before the probe"
        );
        assert!(
            start.elapsed() < PROBE_INTERVAL + Duration::from_millis(20),
            "{layout:?}: sub-slice deadline overslept ({:?})",
            start.elapsed()
        );
        assert!(m.unlock(0));
        assert_eq!(m.held_total(), 0);
    }
}

#[test]
fn double_unlock_refused_in_every_build() {
    // Regression: the underflow guard used to be debug-only (panic
    // under `cfg!(debug_assertions)`, silent restore in release). It
    // is now a checked decrement in all builds: refused, counted, and
    // reported to the caller via the `false` return. The packed
    // representation additionally must not borrow into a neighbouring
    // count field.
    for layout in layouts() {
        let m = Mech::with_backend(2, WaitStrategy::Block, layout);
        m.lock(0, ConflictSet::new(&[]));
        m.lock(1, ConflictSet::new(&[]));
        assert!(m.unlock(0));
        assert!(!m.unlock(0), "double unlock must be refused");
        assert_eq!(m.count(0), 0, "counter must not underflow");
        assert_eq!(m.count(1), 1, "neighbouring field must be untouched");
        assert_eq!(m.stats().underflows.load(Ordering::Relaxed), 1);
        // The mechanism stays usable after a refused release.
        m.lock(0, ConflictSet::new(&[0]));
        assert_eq!(m.count(0), 1);
        assert!(m.unlock(0));
        assert!(m.unlock(1));
    }
}

#[test]
fn field_saturation_blocks_instead_of_corrupting() {
    // 127 holders saturate a 7-bit field; the 128th try_lock must be
    // refused (it would otherwise carry into the next field — for the
    // topmost field, into the reserved region next to the waiter bit),
    // and one release must re-admit.
    for (layout, modes, field, neighbour) in [
        (AdmissionBackend::Packed, 2, 0, 1),
        (AdmissionBackend::Packed, 8, 7, 6),
        (AdmissionBackend::Dwcas, 16, 15, 14),
    ] {
        let m = Mech::with_backend(modes, WaitStrategy::Block, layout);
        for _ in 0..FIELD_MAX {
            assert!(m.try_lock(field, ConflictSet::new(&[])));
        }
        assert_eq!(m.count(field), FIELD_MAX as u32);
        assert!(
            !m.try_lock(field, ConflictSet::new(&[])),
            "{layout:?}: saturated field must refuse admission"
        );
        assert_eq!(m.count(neighbour), 0, "neighbour field untouched");
        assert!(!m.waiter_summary(), "saturation must not publish waiters");
        assert!(m.unlock(field));
        assert!(m.try_lock(field, ConflictSet::new(&[])));
        for _ in 0..FIELD_MAX {
            assert!(m.unlock(field));
        }
        assert_eq!(m.held_total(), 0);
    }
}

#[test]
fn held_conflicting_samples_positive_counters() {
    for layout in layouts() {
        let m = Mech::with_backend(3, WaitStrategy::Block, layout);
        m.lock(0, ConflictSet::new(&[]));
        m.lock(2, ConflictSet::new(&[]));
        let held = |conflicts: &[u32]| {
            let mut seen = Vec::new();
            m.held_conflicting(conflicts, |l| seen.push(l));
            seen
        };
        assert_eq!(held(&[0, 1, 2]), vec![0, 2]);
        assert!(held(&[1]).is_empty());
        assert!(m.unlock(0));
        assert!(m.unlock(2));
    }
}

#[test]
fn many_threads_same_compatible_mode() {
    for layout in layouts() {
        let m = Arc::new(Mech::with_backend(1, WaitStrategy::Block, layout));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    m.lock(0, ConflictSet::new(&[]));
                    assert!(m.unlock(0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.count(0), 0);
    }
}

#[test]
fn contended_counts_once_per_acquisition() {
    // Regression for the MechStats::contended semantics: a waiter that
    // parks several times during one acquisition (woken by releases
    // that do not yet clear its conflicts) must count once. Two holds
    // of mode 0 force the mode-1 waiter through two wakeups.
    for layout in layouts() {
        let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
        m.lock(0, ConflictSet::new(&[]));
        m.lock(0, ConflictSet::new(&[]));
        let m2 = m.clone();
        let t = std::thread::spawn(move || {
            assert!(m2.lock(1, ConflictSet::new(&[0])), "waiter must park");
            assert!(m2.unlock(1));
        });
        std::thread::sleep(Duration::from_millis(30));
        assert!(m.unlock(0)); // wakes the waiter into a still-conflicted check
        std::thread::sleep(Duration::from_millis(30));
        assert!(m.unlock(0)); // now admissible
        t.join().unwrap();
        assert_eq!(
            m.stats().contended.load(Ordering::Relaxed),
            1,
            "{layout:?}: one parked acquisition counts exactly once"
        );
        assert_eq!(m.held_total(), 0);
    }
}

/// Strict weakness order for `Ordering` in the C++11 lattice (for the
/// orderings an RMW/load can carry): Relaxed < Acquire/Release <
/// AcqRel < SeqCst.
fn strength(o: Ordering) -> u32 {
    match o {
        Ordering::Relaxed => 0,
        Ordering::Acquire | Ordering::Release => 1,
        Ordering::AcqRel => 2,
        Ordering::SeqCst => 3,
        _ => u32::MAX,
    }
}

#[test]
fn ordering_audit_table_is_consistent() {
    // Sites are unique.
    let mut sites: Vec<&str> = ORDERING_AUDIT.iter().map(|e| e.site).collect();
    sites.sort_unstable();
    sites.dedup();
    assert_eq!(sites.len(), ORDERING_AUDIT.len(), "duplicate audit site");
    // Every seeded mutant is strictly weaker than the shipped ordering,
    // and only non-Relaxed sites carry one.
    let mut mutants = 0;
    for e in ORDERING_AUDIT {
        assert!(!e.claim.is_empty(), "{}: empty claim", e.site);
        match e.mutant {
            Some(m) => {
                mutants += 1;
                assert!(
                    strength(m) < strength(e.ordering),
                    "{}: mutant {:?} is not strictly weaker than {:?}",
                    e.site,
                    m,
                    e.ordering
                );
            }
            None => {
                // `stack.summary.clear` is the one non-Relaxed site
                // whose weakening only shows up as a po∪mo
                // cross-location cycle — below the interleaving
                // model's resolution, so seeding it would make the
                // mutant suite fail for the wrong reason. The audit
                // entry documents the hardware-only argument.
                assert!(
                    e.ordering == Ordering::Relaxed || e.site == "stack.summary.clear",
                    "{}: non-Relaxed site must carry a seeded mutant",
                    e.site
                );
            }
        }
    }
    assert!(mutants >= 9, "mutant catalog shrank to {mutants} entries");
}

#[test]
fn audited_constants_are_what_the_protocol_ships() {
    // The audit table must report exactly the constants the code
    // compiles against — a drive-by edit of `mech::ordering` without a
    // matching table update fails here.
    let by_site = |s: &str| {
        ORDERING_AUDIT
            .iter()
            .find(|e| e.site == s)
            .unwrap_or_else(|| panic!("no audit entry for {s}"))
            .ordering
    };
    assert_eq!(by_site("word.admit.cas_ok"), ord::WORD_ADMIT_CAS_OK);
    assert_eq!(by_site("word.release.cas_ok"), ord::WORD_RELEASE_CAS_OK);
    assert_eq!(by_site("stack.push.cas_ok"), ord::STACK_PUSH_CAS_OK);
    assert_eq!(by_site("stack.claim.cas_ok"), ord::STACK_CLAIM_CAS_OK);
    assert_eq!(
        by_site("stack.summary.fetch_or"),
        ord::STACK_SUMMARY_FETCH_OR
    );
    assert_eq!(by_site("stack.summary.clear"), ord::STACK_SUMMARY_CLEAR);
    assert_eq!(by_site("stack.peek.head_load"), ord::STACK_PEEK_HEAD_LOAD);
    assert_eq!(by_site("wide.waiter.rmw"), ord::WIDE_WAITER_RMW);
    assert_eq!(by_site("wide.conflict.load"), ord::WIDE_CONFLICT_LOAD);
    assert_eq!(by_site("wide.release.rmw"), ord::WIDE_RELEASE_RMW);
    assert_eq!(by_site("wide.waiters.load"), ord::WIDE_WAITERS_LOAD);
}

#[test]
fn wide_double_unlock_never_publishes_a_wrapped_count() {
    // Regression for the CAS-loop release: hammer double unlocks on
    // mode 0 while a reader polls the counter; the old
    // fetch_sub-then-restore scheme let u32::MAX leak out transiently.
    let m = Arc::new(Mech::with_backend(
        2,
        WaitStrategy::Block,
        AdmissionBackend::Wide,
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (m, stop) = (m.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                assert!(m.count(0) <= 1, "transient underflow wrap observed");
            }
        })
    };
    for _ in 0..20_000 {
        m.lock(0, ConflictSet::new(&[]));
        assert!(m.unlock(0));
        assert!(!m.unlock(0), "double unlock must be refused");
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    assert_eq!(m.held_total(), 0);
}

/// Field math at one width: shifts, saturation value, the summary bit
/// on top, and a mask that covers every field and nothing else.
fn field_math_holds_at<I: WordInt>() {
    let top = I::FIELDS as u32 - 1;
    assert_eq!(
        waiters_bit::<I>().low64(),
        if I::BITS == 64 { 1 << 63 } else { 0 }
    );
    assert_eq!(waiters_bit::<I>() >> (I::BITS - 1), I::ONE);
    assert_eq!(conflict_mask(&[]), 0);
    assert_eq!(conflict_mask(&[0]), FIELD_MAX as u128);
    assert_eq!(conflict_mask(&[1]), (FIELD_MAX as u128) << FIELD_BITS);
    assert_eq!(
        I::truncate(conflict_mask(&[0, top])),
        I::truncate(FIELD_MAX as u128) | (I::truncate(FIELD_MAX as u128) << field_shift(top))
    );
    let all = I::truncate(conflict_mask(&(0..I::FIELDS as u32).collect::<Vec<_>>()));
    assert_eq!(
        all & waiters_bit(),
        I::ZERO,
        "mask must never cover the waiter bit"
    );
    for l in 0..=top {
        assert_eq!(field_of(all, l), FIELD_MAX, "field {l}");
        // A saturated field is exactly FIELD_MAX ones at its shift.
        let one = I::ONE << field_shift(l);
        let mut w = I::ZERO;
        for _ in 0..FIELD_MAX {
            w = w + one;
        }
        assert_eq!(field_of(w, l), FIELD_MAX);
        assert_eq!(
            w & !(I::truncate(FIELD_MAX as u128) << field_shift(l)),
            I::ZERO
        );
    }
    // The fields end below the reserved region under the summary bit.
    assert!(field_shift(top) + FIELD_BITS < I::BITS);
}

#[test]
fn field_math_holds_at_both_widths() {
    field_math_holds_at::<u64>();
    field_math_holds_at::<u128>();
    assert_eq!(u64::FIELDS, 8);
    assert_eq!(u128::FIELDS, 16);
    // For locals a packed partition can have, the 64-bit mask is the
    // low half of the 128-bit one.
    let m = conflict_mask(&[0, 3, 7]);
    assert_eq!(m >> 64, 0);
    assert_eq!(u64::truncate(m) as u128, m);
}
