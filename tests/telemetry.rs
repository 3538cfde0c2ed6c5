//! Integration tests of the contention-telemetry layer (PR 3, PR 19):
//!
//! * the counter level accounts for every operation of a two-thread
//!   ComputeIfAbsent run — exactly, with nothing traced — and
//!   `Metrics::collect` racing the writers only ever sees counts the
//!   cells really held;
//! * trace-level event streams from fault-injected chaos runs and
//!   interpreted workloads are *balanced* — every `AcquireStart` resolves
//!   to exactly one `Admit`+`Release`, `Timeout`, `PoisonRejected`, or
//!   `CycleAborted` per (txn, instance, mode, site) — and the in-place
//!   counters equal `Metrics::from_events` over the same stream;
//! * a watchdog-broken waits-for cycle produces a `CycleAborted` record
//!   whose member list matches the [`LockError::WouldDeadlock`] payload;
//! * recompiling the paper's Fig. 1 / Fig. 7 examples yields identical
//!   stable site ids across runs;
//! * a double release is refused in every build: `unlock_checked`
//!   returns [`LockError::UnlockUnderflow`], poisons the instance, and
//!   (with telemetry on) emits an `UnlockUnderflow` event.
//!
//! The telemetry level, counters and rings are process-global, so every
//! test that sets the level serializes on [`guard`] and resets at
//! quiescence.

use proptest::prelude::*;
use semlock::error::LockError;
use semlock::manager::SemLock;
use semlock::mode::ModeTable;
use semlock::phi::Phi;
use semlock::symbolic::{SymArg, SymOp, SymbolicSet};
use semlock::telemetry::{self, Event, EventKind, Level, Metrics};
use semlock::txn::Txn;
use semlock::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::Duration;
use workloads::chaos::{run_chaos, ChaosConfig};

/// Serializes the telemetry-toggling tests (the level, the counters and
/// the event rings are process-global).
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// The differential oracle: what the threads counted in place at
/// [`Level::Trace`] equals the offline aggregation of the (unwrapped)
/// event stream they also recorded — every per-site count, `contended`,
/// wait total and maximum, histogram bucket and conflict pair.
fn assert_counters_equal_stream(counted: &Metrics, events: &[Event]) {
    let reference = Metrics::from_events(events, Vec::new(), 0);
    assert_eq!(counted.overflow, 0, "a key found no slot");
    assert_eq!(
        counted.trace_dropped, 0,
        "the oracle needs the whole stream"
    );
    assert_eq!(counted.total_events, events.len() as u64);
    assert_eq!(counted.per_site, reference.per_site);
    assert_eq!(counted.conflict_pairs, reference.conflict_pairs);
    assert_eq!(counted.unlock_underflows, reference.unlock_underflows);
}

/// `(Σ acquires, Σ admits, Σ releases)` over every `(site, mode)` cell.
fn totals(m: &Metrics) -> (u64, u64, u64) {
    m.per_site.values().fold((0, 0, 0), |(a, b, c), s| {
        (a + s.acquires, b + s.admits, c + s.releases)
    })
}

/// At the counter level a run is accounted for exactly: two threads × N
/// ComputeIfAbsent operations leave Σacquires = Σadmits = Σreleases = 2N
/// — the lock's own acquisition count — attributed to the compiler-stamped
/// site, with no key lost to overflow and not one event traced. (The PR 15
/// event ring retained 16 384 of these events per thread.)
#[test]
fn counters_account_for_every_operation_and_trace_nothing() {
    use workloads::cia::ComputeIfAbsent;
    use workloads::SyncKind;
    const THREADS: u64 = 2;
    const OPS: u64 = 60_000;

    let _g = guard();
    let bench = ComputeIfAbsent::new(SyncKind::Semantic, 1024);
    telemetry::reset();
    telemetry::enable();
    assert_eq!(telemetry::level(), Level::Counters);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let bench = &bench;
            scope.spawn(move || {
                for i in 0..OPS {
                    bench.invoke(Value((i * THREADS + t) % 1024));
                }
            });
        }
    });
    telemetry::disable();
    let counted = Metrics::collect();
    let (events, dropped) = telemetry::snapshot();
    telemetry::reset();

    let issued = THREADS * OPS;
    assert_eq!(totals(&counted), (issued, issued, issued));
    assert_eq!(bench.contention().0, issued, "the lock's own count");
    assert_eq!(counted.overflow, 0);
    assert!(
        counted
            .per_site
            .keys()
            .all(|&(site, _)| site != telemetry::SITE_NONE),
        "every cell is attributed to the stamped lock site"
    );
    let contended: u64 = counted.per_site.values().map(|s| s.contended).sum();
    assert_eq!(
        contended,
        bench.contention().1,
        "the lock's own contended count"
    );
    assert!(
        events.is_empty() && dropped == 0,
        "the counter level traces nothing"
    );
    assert_eq!((counted.total_events, counted.trace_dropped), (0, 0));
}

/// `Metrics::collect` never blocks a writer and never reads a value a
/// cell did not hold: racing two recording threads, successive sums only
/// grow and none exceeds the quiescent total.
#[test]
fn collect_racing_writers_is_monotone_and_bounded() {
    use workloads::cia::ComputeIfAbsent;
    use workloads::SyncKind;
    /// Distinct sums the collector must see before the writers may stop:
    /// each one is a `collect` that ran while they were recording.
    const RACED: usize = 100;

    let _g = guard();
    let bench = ComputeIfAbsent::new(SyncKind::Semantic, 1024);
    telemetry::reset();
    telemetry::enable();
    let start = Barrier::new(3);
    let stop = AtomicBool::new(false);
    let mut seen = vec![(0, 0, 0)];
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let (bench, start, stop) = (&bench, &start, &stop);
            scope.spawn(move || {
                start.wait();
                let mut i = t;
                // At least one operation after the last racing collect.
                loop {
                    bench.invoke(Value(i % 1024));
                    i += 2;
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
            });
        }
        start.wait();
        while seen.len() <= RACED {
            let sums = totals(&Metrics::collect());
            if Some(&sums) != seen.last() {
                seen.push(sums);
            }
        }
        stop.store(true, Ordering::Release);
    });
    telemetry::disable();
    let last = totals(&Metrics::collect());
    telemetry::reset();

    assert_eq!(last.0, last.1);
    assert_eq!(last.1, last.2, "quiescent: every admission was released");
    assert_eq!(last.1, bench.contention().0);
    for pair in seen.windows(2) {
        let ((a0, b0, c0), (a1, b1, c1)) = (pair[0], pair[1]);
        assert!(
            a0 <= a1 && b0 <= b1 && c0 <= c1,
            "a sum went backwards: {pair:?}"
        );
    }
    let (a, b, c) = *seen.last().unwrap();
    assert!(a <= last.0 && b <= last.1 && c <= last.2);
}

/// The ComputeIfAbsent mode table: same-key transactions conflict
/// (containsKey vs put), distinct key classes commute.
fn cia_table(n: u16) -> (Arc<ModeTable>, semlock::mode::LockSiteId) {
    let schema = adts::schema_of("Map");
    let spec = adts::spec_of("Map");
    let mut b = ModeTable::builder(schema.clone(), spec, Phi::fib(n));
    let site = b.add_site(SymbolicSet::new(vec![
        SymOp::new(schema.method("containsKey"), vec![SymArg::Var(0)]),
        SymOp::new(schema.method("put"), vec![SymArg::Var(0), SymArg::Star]),
    ]));
    (b.build(), site)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 1a: chaos soaks — bounded acquisitions, injected
    /// timeouts and panics, watchdog aborts, poisoning — always leave a
    /// balanced event stream behind, and in-place counters equal to it.
    #[test]
    fn chaos_event_stream_balances(seed in 0u64..1_000_000) {
        let _g = guard();
        telemetry::reset();
        telemetry::set_level(Level::Trace);
        let cfg = ChaosConfig {
            seed,
            threads: 3,
            ops_per_thread: 80,
            maps: 2,
            key_range: 8,
            lock_timeout: Duration::from_millis(200),
            delay_ppm: 0,
            timeout_ppm: 15_000,
            panic_ppm: 15_000,
            retry: None,
        };
        let report = run_chaos(&cfg).expect("chaos invariants");
        telemetry::disable();
        let (events, dropped) = telemetry::snapshot();
        let counted = Metrics::collect();
        telemetry::reset();
        assert_eq!(dropped, 0, "ring overflow would break the balance check");
        assert!(!events.is_empty(), "telemetry recorded nothing: {report:?}");
        if let Err(e) = telemetry::check_balanced(&events) {
            panic!("unbalanced stream (seed {seed}): {e}\nreport: {report:?}");
        }
        assert_counters_equal_stream(&counted, &events);
    }
}

/// Satellite 1b: an interpreted multi-threaded driver run with telemetry
/// on yields a balanced stream attributed to the compiler-stamped sites.
#[test]
fn interp_driver_stream_balances() {
    use interp::{Env, Interp, Strategy};
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};

    let _g = guard();
    let mut registry = ClassRegistry::new();
    registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
    let section = AtomicSection::new(
        "counter",
        [ptr("map", "Map"), scalar("k"), scalar("v")],
        Body::new()
            .call_into("v", "map", "get", vec![var("k")])
            .if_else(
                is_null(var("v")),
                Body::new().call("map", "put", vec![var("k"), konst(1)]),
                Body::new().call("map", "put", vec![var("k"), add(var("v"), konst(1))]),
            )
            .build(),
    );
    let program = Arc::new(
        Synthesizer::new(registry)
            .phi(Phi::fib(16))
            .synthesize(&[section]),
    );
    let stamped: Vec<u32> = program.sections[0]
        .sites
        .iter()
        .map(|s| s.stable_id)
        .collect();
    assert!(stamped.iter().all(|&id| id != 0 && id != u32::MAX));
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    let interp = Arc::new(Interp::new(env, Strategy::Semantic));

    telemetry::reset();
    telemetry::set_level(Level::Trace);
    workloads::driver::run_fixed_ops(4, 150, 11, &|t, _| {
        let k = Value((t as u64 * 31) % 8);
        interp.run("counter", &[("map", map), ("k", k)]);
    });
    telemetry::disable();
    let (events, dropped) = telemetry::snapshot();
    let counted = Metrics::collect();
    telemetry::reset();
    assert_eq!(dropped, 0);
    telemetry::check_balanced(&events).expect("interp driver stream balances");
    assert_counters_equal_stream(&counted, &events);
    // Every admit is attributed to a compiler-stamped site, never the
    // "no site" sentinel.
    let admits: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Admit)
        .collect();
    assert!(!admits.is_empty());
    assert!(
        admits.iter().all(|e| stamped.contains(&e.site)),
        "an admit carries an unstamped site id"
    );
}

/// Satellite 2: a deterministic two-transaction deadlock. The watchdog
/// aborts the cycle; the `CycleAborted` telemetry record's member list
/// must match the `WouldDeadlock` error payload.
#[test]
fn cycle_abort_event_matches_would_deadlock_payload() {
    const SITE_A: u32 = 0xA11CE;
    const SITE_B: u32 = 0xB0B;

    let _g = guard();
    telemetry::reset();
    telemetry::set_level(Level::Trace);

    let (table, site) = cia_table(8);
    let mode = table.select(site, &[Value(7)]); // self-conflicting
    let a = SemLock::new(table.clone());
    let b = SemLock::new(table.clone());
    let gate = Barrier::new(2);
    let errors: Mutex<Vec<LockError>> = Mutex::new(Vec::new());

    let run = |first: &SemLock, second: &SemLock, site_id: u32| {
        let mut txn = Txn::new();
        telemetry::set_site(site_id);
        txn.lv(first, mode);
        gate.wait();
        telemetry::set_site(site_id);
        match txn.lv_timeout(second, mode, Duration::from_secs(10)) {
            Ok(()) => {}
            Err(e) => errors.lock().unwrap().push(e),
        }
        // Drop releases whatever the transaction still holds.
    };
    std::thread::scope(|scope| {
        scope.spawn(|| run(&a, &b, SITE_A));
        scope.spawn(|| run(&b, &a, SITE_B));
    });
    telemetry::disable();
    let (events, dropped) = telemetry::snapshot();
    let cycles = telemetry::cycles();
    telemetry::reset();

    let errors = errors.into_inner().unwrap();
    assert_eq!(errors.len(), 1, "exactly one txn aborts: {errors:?}");
    let LockError::WouldDeadlock {
        instance,
        mode: err_mode,
        cycle,
    } = &errors[0]
    else {
        panic!("expected WouldDeadlock, got {}", errors[0]);
    };

    assert_eq!(cycles.len(), 1, "one cycle record: {cycles:?}");
    let rec = &cycles[0];
    assert_eq!(&rec.members, cycle, "cycle record members match payload");
    assert_eq!(rec.instance, *instance);
    assert_eq!(rec.mode, err_mode.0);
    assert!(rec.site == SITE_A || rec.site == SITE_B);
    assert!(
        cycle.contains(&rec.txn),
        "the aborting txn is a member of its own cycle"
    );

    assert_eq!(dropped, 0);
    let aborts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::CycleAborted)
        .collect();
    assert_eq!(aborts.len(), 1, "one CycleAborted event");
    assert_eq!(aborts[0].txn, rec.txn);
    assert_eq!(aborts[0].instance, *instance);
    assert_eq!(aborts[0].site, rec.site);
    telemetry::check_balanced(&events).expect("deadlock stream balances");
}

/// Satellite 4: stable site ids are a pure function of the synthesized
/// program — recompiling Fig. 1 / Fig. 7 yields identical ids, and ids
/// are unique within a program.
#[test]
fn site_ids_identical_across_recompiles() {
    use synth::ir::{fig1_section, fig7_section};
    use synth::{ClassRegistry, Synthesizer};

    fn registry() -> ClassRegistry {
        let mut r = ClassRegistry::new();
        for class in ["Map", "Set", "Queue"] {
            r.register(class, adts::schema_of(class), adts::spec_of(class));
        }
        r
    }
    fn compile_ids() -> Vec<(String, Vec<u32>)> {
        let out = Synthesizer::new(registry())
            .phi(Phi::fib(16))
            .synthesize(&[fig1_section(), fig7_section()]);
        out.sections
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    s.sites.iter().map(|d| d.stable_id).collect(),
                )
            })
            .collect()
    }

    let first = compile_ids();
    for _ in 0..3 {
        assert_eq!(compile_ids(), first, "site ids drift across recompiles");
    }
    let all: Vec<u32> = first.iter().flat_map(|(_, ids)| ids.clone()).collect();
    assert!(!all.is_empty());
    assert!(
        all.iter().all(|&id| id != 0 && id != u32::MAX),
        "ids avoid the unstamped / no-site sentinels: {all:?}"
    );
    let mut dedup = all.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), all.len(), "site ids collide: {all:?}");
}

/// Satellite 3 (instance level): a double release is refused in release
/// builds too — the counter is untouched, the instance poisons, and the
/// failure is observable both as an error and as telemetry. Driven under
/// *both* explicit counter layouts: the packed single-word representation
/// must refuse exactly like the wide fallback (its 7-bit field neither
/// saturates nor borrows), not just under whatever `Auto` picks.
#[test]
fn double_release_refused_poisons_and_reports() {
    use semlock::AdmissionBackend;
    use semlock::WaitStrategy;

    let _g = guard();
    for backend in [AdmissionBackend::Packed, AdmissionBackend::Wide] {
        let (table, site) = cia_table(8);
        let mode = table.select(site, &[Value(3)]);
        let lock = SemLock::with_backend(table, WaitStrategy::Block, backend);

        telemetry::reset();
        telemetry::set_level(Level::Trace);
        lock.lock(mode);
        lock.unlock_checked(mode).expect("first release succeeds");
        let err = lock
            .unlock_checked(mode)
            .expect_err("second release refused");
        telemetry::disable();
        let (events, _) = telemetry::snapshot();
        let counted = Metrics::collect();
        telemetry::reset();
        assert_eq!(counted.unlock_underflows, 1, "{backend:?}");

        assert!(
            matches!(err, LockError::UnlockUnderflow { instance, mode: m }
                if instance == lock.unique() && m == mode),
            "{backend:?}: {err}"
        );
        assert!(
            lock.is_poisoned(),
            "{backend:?}: refused double release poisons"
        );
        assert_eq!(lock.underflow_count(), 1, "{backend:?}");
        assert_eq!(
            lock.total_holds(),
            0,
            "{backend:?}: the counter never underflowed"
        );
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::UnlockUnderflow && e.instance == lock.unique()),
            "{backend:?}: an UnlockUnderflow event is emitted"
        );

        // The instance recovers through the normal escape hatch.
        lock.clear_poison();
        lock.lock(mode);
        lock.unlock_checked(mode)
            .unwrap_or_else(|e| panic!("{backend:?}: usable after recovery: {e}"));
    }
}

/// The watchdog's `CycleAborted` path under both explicit counter
/// layouts. The probe/abort machinery lives in the bounded wait loops of
/// `Mech::lock_deadline`, which differ per layout (packed parks under the
/// WAITERS bit, wide under the internal mutex), so a cycle must be broken
/// — with the abort surfacing as both `WouldDeadlock` and a
/// `CycleAborted` event — whichever representation serves the partition.
#[test]
fn cycle_abort_fires_under_both_mech_layouts() {
    use semlock::AdmissionBackend;
    use semlock::WaitStrategy;

    let _g = guard();
    for backend in [AdmissionBackend::Packed, AdmissionBackend::Wide] {
        telemetry::reset();
        telemetry::set_level(Level::Trace);

        let (table, site) = cia_table(8);
        let mode = table.select(site, &[Value(7)]); // self-conflicting
        let a = SemLock::with_backend(table.clone(), WaitStrategy::Block, backend);
        let b = SemLock::with_backend(table.clone(), WaitStrategy::Block, backend);
        let gate = Barrier::new(2);
        let errors: Mutex<Vec<LockError>> = Mutex::new(Vec::new());

        let run = |first: &SemLock, second: &SemLock| {
            let mut txn = Txn::new();
            txn.lv(first, mode);
            gate.wait();
            if let Err(e) = txn.lv_timeout(second, mode, Duration::from_secs(10)) {
                errors.lock().unwrap().push(e);
            }
        };
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| run(&a, &b));
            scope.spawn(|| run(&b, &a));
        });
        telemetry::disable();
        let (events, _) = telemetry::snapshot();
        telemetry::reset();

        assert!(
            start.elapsed() < Duration::from_secs(8),
            "{backend:?}: watchdog did not break the cycle before the deadline"
        );
        let errors = errors.into_inner().unwrap();
        assert_eq!(errors.len(), 1, "{backend:?}: exactly one txn aborts");
        assert!(
            matches!(errors[0], LockError::WouldDeadlock { .. }),
            "{backend:?}: {}",
            errors[0]
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == EventKind::CycleAborted)
                .count(),
            1,
            "{backend:?}: one CycleAborted event"
        );
        assert_eq!(a.total_holds() + b.total_holds(), 0, "{backend:?}");
    }
}

/// The level decides which tier records: `Off` touches neither — the
/// disabled path is a branch, not a buffer — `Counters` counts in place
/// and traces nothing, `Trace` does both; `reset` zeroes both tiers.
#[test]
fn disabled_flag_records_nothing() {
    let _g = guard();
    telemetry::reset();
    telemetry::disable();
    let (table, site) = cia_table(8);
    let mode = table.select(site, &[Value(1)]);
    let lock = SemLock::new(table);
    let run = |level: Level| {
        telemetry::set_level(level);
        for _ in 0..100 {
            let mut txn = Txn::new();
            txn.lv(&lock, mode);
            txn.unlock_all();
        }
        telemetry::disable();
        (Metrics::collect(), telemetry::snapshot())
    };

    let (counted, (events, dropped)) = run(Level::Off);
    assert!(counted.per_site.is_empty() && counted.conflict_pairs.is_empty());
    assert_eq!((counted.total_events, counted.overflow), (0, 0));
    assert!(events.is_empty());
    assert_eq!(dropped, 0);

    let (counted, (events, _)) = run(Level::Counters);
    assert_eq!(totals(&counted), (100, 100, 100));
    assert!(events.is_empty(), "the counter level records no events");

    let (counted, (events, _)) = run(Level::Trace);
    assert_eq!(
        totals(&counted),
        (200, 200, 200),
        "the counters keep counting"
    );
    assert_eq!(
        events.len(),
        300,
        "start, admit and release per transaction"
    );
    assert_eq!(counted.total_events, 300);

    telemetry::reset();
    let (counted, (events, _)) = run(Level::Off);
    assert!(counted.per_site.is_empty(), "reset zeroes the counters");
    assert!(events.is_empty(), "reset empties the rings");
    assert_eq!(counted.total_events, 0);
}
