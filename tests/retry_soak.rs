//! Soak tests for the abort-retry runtime (PR 7):
//!
//! * **Eventual completion** — `Interp::run_with_retry` under arbitrary
//!   seeded `FaultPlan`s, on both execution engines, completes every
//!   transaction: no livelock, no leaked mode holds, and the telemetry
//!   event stream stays balanced *across* attempts (each attempt is its
//!   own balanced acquire/terminal episode under a fresh txn id).
//! * **Starvation escalation** — a repeatedly-aborted eldest transaction
//!   (smallest txn ids via `with_txn_ids`) ages into the escalated
//!   pessimistic path and still finishes under live contention.
//! * **Server SLO** — the open-loop server workload with injected faults
//!   eventually completes ≥99% of non-shed requests with a settled
//!   outcome ledger across ten chaos-soak seeds.
//!
//! `SEMLOCK_CHAOS_OPS` scales the iteration counts (the CI `server-soak`
//! job raises it in `--release`; the default keeps plain `cargo test`
//! quick).

use interp::{Engine, Env, Interp, Strategy};
use proptest::prelude::*;
use semlock::fault::{self, FaultPlan};
use semlock::retry::RetryPolicy;
use semlock::telemetry;
use semlock::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use workloads::interp_chaos::counter_section;
use workloads::{run_server, ServerConfig};

fn chaos_ops() -> u64 {
    std::env::var("SEMLOCK_CHAOS_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
}

/// Serializes the telemetry-toggling tests in this binary (the enabled
/// flag and the event rings are process-global).
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// The retry escalation state machine over the Dwcas + claim-stack park
/// path: contending threads acquire a high-half mode of a 16-mode
/// partition with deadlines tight enough to abort constantly, walk every
/// abort through `RetryPolicy::on_abort` (backoff → escalation), and
/// count each re-run into the process-wide [`RetryCounters`]. Every
/// logical op must eventually complete, the counters must balance
/// exactly against the locally observed aborts, and the mech must be
/// spotless at quiescence (no holds, no waiter nodes, no summary bit).
#[test]
fn retry_counters_balance_over_dwcas_claim_stack() {
    use semlock::mech::{AdmissionBackend, Mech, WaitStrategy};
    retry_balance_soak(Arc::new(Mech::with_backend(
        16,
        WaitStrategy::Block,
        AdmissionBackend::Dwcas,
    )));
}

/// The same abort-retry balance obligation on the wide counters — the
/// representation every `server_*` shard runs on: bounded probes, then
/// the mutex/condvar park, must keep the global retry/escalation
/// counters in exact balance with locally observed aborts and come out
/// spotless at quiescence.
#[test]
fn retry_counters_balance_over_wide_probe_then_park() {
    use semlock::mech::{AdmissionBackend, Mech, WaitStrategy};
    retry_balance_soak(Arc::new(Mech::with_backend(
        16,
        WaitStrategy::Block,
        AdmissionBackend::Wide,
    )));
}

fn retry_balance_soak(mech: Arc<semlock::mech::Mech>) {
    use semlock::error::LockError;
    use semlock::mech::{Acquire, ConflictSet, Wait};
    use semlock::retry::RetryOutcome;
    use semlock::ModeId;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;
    let _g = guard();
    let before = telemetry::retry_counters();
    let policy = Arc::new(RetryPolicy::new(11).escalate_after(3));
    let ops = chaos_ops().min(300);
    let retried = Arc::new(AtomicU64::new(0));
    let escalated = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let mech = Arc::clone(&mech);
            let policy = Arc::clone(&policy);
            let retried = Arc::clone(&retried);
            let escalated = Arc::clone(&escalated);
            scope.spawn(move || {
                // Mode 15 (high half of the DWCAS word) conflicts with
                // itself: full mutual exclusion among all threads.
                let cs = ConflictSet::new(&[15]);
                for i in 0..ops {
                    let txn = t * ops + i;
                    let mut st = semlock::retry::RetryState::new();
                    loop {
                        // Escalated attempts get the policy's patience
                        // budget; ordinary ones a deliberately tiny
                        // deadline so aborts are common.
                        let wait = if st.escalated() {
                            policy.patience_budget()
                        } else {
                            Duration::from_micros(30)
                        };
                        let got = mech
                            .lock_deadline(15, cs, Instant::now() + wait, &mut || Wait::Continue);
                        if got == Acquire::Acquired {
                            // Hold the mode long enough that rival
                            // 30µs-deadline attempts genuinely expire —
                            // otherwise the abort path never fires and
                            // the balance checks below are vacuous.
                            let until = Instant::now() + Duration::from_micros(60);
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                            assert!(mech.unlock(15));
                            break;
                        }
                        let err = LockError::Timeout {
                            instance: 0,
                            mode: ModeId(15),
                            waited: wait,
                        };
                        match policy.on_abort(&mut st, txn, &err) {
                            RetryOutcome::RetryAfter(backoff) => {
                                telemetry::count_retry();
                                retried.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(backoff.min(Duration::from_micros(200)));
                            }
                            RetryOutcome::Escalate => {
                                telemetry::count_retry();
                                retried.fetch_add(1, Ordering::Relaxed);
                                if st.attempts() == 3 {
                                    telemetry::count_escalation();
                                    escalated.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            out => panic!("budget blown under pure contention: {out:?}"),
                        }
                    }
                }
            });
        }
    });
    let after = telemetry::retry_counters();
    assert!(
        retried.load(Ordering::Relaxed) > 0,
        "soak produced no aborts — the retry path was never exercised"
    );
    assert_eq!(
        after.retries - before.retries,
        retried.load(Ordering::Relaxed),
        "global retry counter out of balance with observed aborts"
    );
    assert_eq!(
        after.escalations - before.escalations,
        escalated.load(Ordering::Relaxed),
        "global escalation counter out of balance"
    );
    assert_eq!(after.exhausted, before.exhausted);
    assert_eq!(mech.held_total(), 0, "holds leaked through the retry loop");
    assert_eq!(mech.live_waiter_nodes(), 0, "waiter nodes leaked");
    assert!(!mech.waiter_summary(), "stale waiter-summary bit");
}

fn counter_program() -> Arc<synth::SynthOutput> {
    Arc::new(
        synth::Synthesizer::new(workloads::synthesis::registry())
            .phi(semlock::phi::Phi::fib(16))
            .synthesize(&[counter_section()]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seeded fault plan, both engines: heavy forced-timeout pressure
    /// (~half of all acquisitions abort), yet every transaction
    /// eventually completes through `run_with_retry`, no modes leak, and
    /// the telemetry stream balances attempt by attempt.
    #[test]
    fn run_with_retry_always_completes(seed in 0u64..1_000_000) {
        let _g = guard();
        fault::silence_injected_panics();
        for engine in [Engine::TreeWalk, Engine::Compiled] {
            telemetry::reset();
            telemetry::set_level(telemetry::Level::Trace);
            let program = counter_program();
            let env = Arc::new(Env::new(program));
            let map = env.new_instance("Map");
            let plan = Arc::new(FaultPlan::new(seed).with_timeouts(300_000));
            let interp = Interp::new(env.clone(), Strategy::Semantic)
                .with_faults(plan)
                .with_lock_timeout(Duration::from_millis(200))
                .with_engine(engine);
            let policy = RetryPolicy::new(seed).escalate_after(8);
            let iters = chaos_ops().min(120);
            let retried = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..3u64 {
                    let (interp, policy, retried) = (&interp, &policy, &retried);
                    scope.spawn(move || {
                        for i in 0..iters {
                            let k = (t * 17 + i) % 8;
                            let run = interp
                                .run_with_retry("counter", &[("map", map), ("k", Value(k))], policy)
                                .unwrap_or_else(|e| {
                                    panic!("seed {seed} ({engine:?}): budget exhausted: {e}")
                                });
                            retried.fetch_add(u64::from(run.attempts > 1), Ordering::Relaxed);
                        }
                    });
                }
            });
            let retried = retried.into_inner();
            let adt = env.resolve(map);
            prop_assert_eq!(
                adt.sem().total_holds(),
                0,
                "seed {} ({:?}): modes leaked", seed, engine
            );
            telemetry::disable();
            let (mut events, dropped) = telemetry::snapshot();
            telemetry::reset();
            // The level is process-wide: tests of this binary that run
            // beside this one trace too while it is on, and may be mid-
            // acquisition when it goes off. Only this map's events count.
            events.retain(|e| e.instance == adt.sem().unique());
            prop_assert_eq!(dropped, 0u64, "ring overflow breaks the balance check");
            prop_assert!(!events.is_empty(), "telemetry recorded nothing");
            if let Err(e) = telemetry::check_balanced(&events) {
                return Err(TestCaseError::fail(format!(
                    "seed {seed} ({engine:?}): unbalanced across attempts: {e}"
                )));
            }
            prop_assert!(
                retried > 0,
                "seed {} ({:?}): 30% forced timeouts but nothing retried", seed, engine
            );
        }
    }
}

/// The starvation rule end to end: an eldest victim (txn ids from 0 via
/// `with_txn_ids`) facing both forced timeouts and genuine contention
/// escalates after its threshold and still finishes; escalation never
/// leaks a hold.
#[test]
fn starved_eldest_escalates_and_finishes() {
    fault::silence_injected_panics();
    let program = counter_program();
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    // The victim: eldest ids, every acquisition ~60% likely to be
    // force-timed-out, escalation armed after the first abort.
    let victim = Interp::new(env.clone(), Strategy::Semantic)
        .with_faults(Arc::new(FaultPlan::new(99).with_timeouts(600_000)))
        .with_lock_timeout(Duration::from_millis(50))
        .with_txn_ids(0);
    let policy = RetryPolicy::new(99).escalate_after(1);
    // Live contention on the same key class from fault-free churners.
    let churn =
        Interp::new(env.clone(), Strategy::Semantic).with_lock_timeout(Duration::from_millis(50));
    let stop = AtomicBool::new(false);
    let mut escalated_run = None;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (churn, stop) = (&churn, &stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = churn.try_run("counter", &[("map", map), ("k", Value(3))]);
                }
            });
        }
        // Aborts are probabilistic per (txn, step); retry until one run
        // aborts at least once — that run must have escalated (threshold
        // 1) and, having returned Ok, finished anyway.
        for _ in 0..400 {
            let run = victim
                .run_with_retry("counter", &[("map", map), ("k", Value(3))], &policy)
                .expect("victim exhausted its budget");
            if run.attempts > 1 {
                escalated_run = Some(run);
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let run = escalated_run.expect("400 runs at 60% forced timeouts never aborted once");
    assert!(
        run.escalated,
        "aborted eldest txn did not escalate: {run:?}"
    );
    assert!(run.attempts >= 2, "{run:?}");
    // Eldest: the replay allocator handed out the smallest ids first.
    assert!(
        run.txns.iter().all(|&t| t < 10_000),
        "victim txn ids not from the eldest range: {run:?}"
    );
    let adt = env.resolve(map);
    assert_eq!(adt.sem().total_holds(), 0, "escalated path leaked a hold");
}

/// PR 7 acceptance: ten seeds of the open-loop server under injected
/// faults — ≥99% eventual completion with sheds excluded, every request
/// settled (zero livelocked), no failures leaking out of the ledger.
#[test]
fn server_soak_ten_seeds() {
    for seed in 0..10u64 {
        let mut cfg = ServerConfig::soak(seed);
        cfg.requests = (chaos_ops() * 4).max(600);
        let r = run_server(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(r.settled(), "seed {seed}: unsettled ledger: {r:?}");
        assert!(
            r.completion_ratio() >= 0.99,
            "seed {seed}: eventual completion {:.4} below the SLO: {r:?}",
            r.completion_ratio()
        );
        assert!(
            r.retried_completions > 0,
            "seed {seed}: faults injected but no request ever retried: {r:?}"
        );
    }
}
