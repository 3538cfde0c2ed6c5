//! Chaos / fault-injection soak tests for the fault-tolerant lock runtime.
//!
//! Two layers are soaked: the native `Txn` API (via the `workloads` chaos
//! driver) and the IR interpreter (via `Interp::with_faults`). Every run
//! injects delays, forced timeouts, and panics at lock / unlock / operation
//! boundaries across 8 threads and asserts the global invariants: no hangs,
//! no hold-counter underflow, no mode leaks after panics, workload
//! validation holds, and poisoned instances reject acquirers until
//! `clear_poison`.
//!
//! `SEMLOCK_CHAOS_OPS` scales the per-thread iteration count (the CI
//! `chaos-soak` job raises it in `--release`; the default keeps plain
//! `cargo test` quick).

use interp::{Engine, Env, Interp, Strategy};
use semlock::error::LockError;
use semlock::fault::{self, FaultPlan};
use semlock::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use workloads::{run_chaos, ChaosConfig};

fn chaos_ops() -> u64 {
    std::env::var("SEMLOCK_CHAOS_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
}

/// The headline soak: ten distinct seeds, 8 threads each, every fault class
/// enabled, all invariants checked inside `run_chaos`.
#[test]
fn native_soak_ten_seeds() {
    for seed in 0..10u64 {
        let mut cfg = ChaosConfig::ci(seed);
        cfg.ops_per_thread = chaos_ops();
        let r = run_chaos(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(r.attempted, cfg.threads as u64 * cfg.ops_per_thread);
        assert!(r.completed > 0, "seed {seed} starved: {r:?}");
        assert!(r.injected_panics > 0, "seed {seed} injected nothing: {r:?}");
    }
}

/// Deterministic fault schedules: with a single worker (no cross-thread
/// interference changing which boundaries get crossed), the same seed must
/// replay the exact same faults and outcomes.
#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let run = |seed| {
        let mut cfg = ChaosConfig::ci(seed);
        cfg.threads = 1;
        cfg.ops_per_thread = 300;
        let r = run_chaos(&cfg).unwrap();
        (
            r.completed,
            r.timeouts,
            r.injected_panics,
            r.poison_rejections,
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "distinct seeds produced identical runs");
}

mod interp_soak {
    use super::*;
    use semlock::value::Value;
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};

    fn counter_program() -> Arc<synth::SynthOutput> {
        let mut reg = ClassRegistry::new();
        reg.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
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
        Arc::new(
            Synthesizer::new(reg)
                .phi(semlock::phi::Phi::fib(16))
                .synthesize(&[section]),
        )
    }

    /// The interpreter under chaos: 8 threads, injected panics and forced
    /// timeouts, protocol checker attached, on **both** execution engines.
    /// Afterwards: no holds, the recorded event stream is still
    /// protocol-clean, and the counter map is within the abort-accounting
    /// bounds.
    #[test]
    fn interp_chaos_soak() {
        fault::silence_injected_panics();
        for (seed, engine) in [
            (3u64, Engine::TreeWalk),
            (17, Engine::TreeWalk),
            (99, Engine::TreeWalk),
            (3, Engine::Compiled),
            (17, Engine::Compiled),
            (99, Engine::Compiled),
        ] {
            let program = counter_program();
            let env = Arc::new(Env::new(program));
            let map = env.new_instance("Map");
            let checker = Arc::new(ProtocolChecker::new());
            let plan = Arc::new(
                FaultPlan::new(seed)
                    .with_delays(20_000, Duration::from_micros(100))
                    .with_timeouts(20_000)
                    .with_panics(20_000),
            );
            let interp = Arc::new(
                Interp::new(env.clone(), Strategy::Semantic)
                    .with_checker(checker.clone())
                    .with_faults(plan.clone())
                    .with_lock_timeout(Duration::from_millis(250))
                    .with_engine(engine),
            );
            let iters = chaos_ops();
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let interp = interp.clone();
                    let env = env.clone();
                    scope.spawn(move || {
                        for i in 0..iters {
                            let k = (t * 31 + i) % 8;
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                interp.try_run("counter", &[("map", map), ("k", Value(k))])
                            }));
                            match r {
                                Ok(Ok(_)) | Ok(Err(_)) => {}
                                Err(payload) => {
                                    assert!(
                                        fault::injected(&*payload).is_some(),
                                        "seed {seed}: genuine panic escaped the executor"
                                    );
                                }
                            }
                            // Recover from poisoning so the soak keeps
                            // exercising the instance.
                            let adt = env.resolve(map);
                            if adt.sem().is_poisoned() {
                                adt.sem().clear_poison();
                            }
                        }
                    });
                }
            });
            let adt = env.resolve(map);
            assert_eq!(
                adt.sem().total_holds(),
                0,
                "seed {seed}: modes leaked at quiescence"
            );
            checker
                .ensure_ok()
                .unwrap_or_else(|v| panic!("seed {seed} ({engine:?}): {v}"));
        }
    }

    /// The workloads-level interpreter chaos driver on the compiled
    /// engine: multi-map, ten seeds, full invariant checking inside
    /// `run_interp_chaos`.
    #[test]
    fn compiled_engine_soak_ten_seeds() {
        for seed in 0..10u64 {
            let mut cfg = workloads::InterpChaosConfig::ci(seed, Engine::Compiled);
            cfg.ops_per_thread = chaos_ops();
            let r =
                workloads::run_interp_chaos(&cfg).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(r.attempted, cfg.threads as u64 * cfg.ops_per_thread);
            assert!(r.completed > 0, "seed {seed} starved: {r:?}");
            assert!(r.injected_panics > 0, "seed {seed} injected nothing: {r:?}");
        }
    }
}

/// Park/handoff under chaos-scale contention, on every counter
/// representation. All threads fight over one self-conflicting mode with a mix
/// of unbounded and tightly-bounded acquisitions, so the soak
/// interleaves parked waiters, timed-out stale nodes, and back-to-back
/// handoffs. The CI `chaos-soak` job raises `SEMLOCK_CHAOS_OPS` to push
/// this hard.
mod waiter_handoff_soak {
    use super::*;
    use semlock::mech::{Acquire, AdmissionBackend, ConflictSet, Mech, Wait, WaitStrategy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    #[test]
    fn backend_soak_balances_and_leaks_nothing() {
        let ops = chaos_ops();
        // Mode 0 conflicts with itself; mode 1 is a bystander.
        for backend in AdmissionBackend::CONCRETE {
            let mech = Arc::new(Mech::with_backend(2, WaitStrategy::Block, backend));
            let name = mech.backend();
            let held = Arc::new(AtomicU64::new(0));
            std::thread::scope(|scope| {
                for t in 0..8u64 {
                    let mech = Arc::clone(&mech);
                    let held = Arc::clone(&held);
                    scope.spawn(move || {
                        let cs = ConflictSet::new(&[0]);
                        for i in 0..ops {
                            let acquired = if (t + i) % 5 == 0 {
                                mech.lock_deadline(
                                    0,
                                    cs,
                                    Instant::now() + Duration::from_micros(20),
                                    &mut || Wait::Continue,
                                ) == Acquire::Acquired
                            } else {
                                mech.lock(0, cs);
                                true
                            };
                            if acquired {
                                assert_eq!(held.fetch_add(1, Ordering::AcqRel), 0);
                                assert_eq!(held.fetch_sub(1, Ordering::AcqRel), 1);
                                assert!(mech.unlock(0));
                            }
                        }
                    });
                }
            });
            assert_eq!(mech.held_total(), 0, "{name}: holds leaked");
            assert_eq!(mech.live_waiter_nodes(), 0, "{name}: nodes leaked");
            assert!(!mech.waiter_summary(), "{name}: stale summary bit");
        }
    }
}

/// Satellite: a panic in one thread's atomic section must not strand
/// conflicting acquirers in other threads.
mod cross_thread_panic {
    use super::*;
    use semlock::manager::SemLock;
    use semlock::schema::set_schema;
    use semlock::symbolic::{SymArg, SymOp, SymbolicSet};

    fn exclusive_lock() -> (Arc<semlock::mode::ModeTable>, ModeId) {
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
        let t = b.build();
        // add(k)/remove(k) on the same key class never commute, so this
        // mode conflicts with itself.
        let m = t.select(site, &[Value(3)]);
        (t, m)
    }

    /// Thread A panics *between* operations (nothing mutated): locks are
    /// released by the unwinding `Txn`, no poison, and thread B's
    /// conflicting acquisition proceeds.
    #[test]
    fn panic_before_mutation_frees_conflicting_acquirer() {
        let (t, m) = exclusive_lock();
        let lock = Arc::new(SemLock::new(t));
        let a = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let mut txn = Txn::new();
                    txn.lv(&lock, m);
                    panic!("worker died before touching the ADT");
                }));
                assert!(r.is_err());
            })
        };
        a.join().unwrap();
        // B: the conflicting mode must be admissible, with no poison.
        let mut txn = Txn::new();
        txn.try_lv(&lock, m).expect("instance should be clean");
        txn.unlock_all();
        assert_eq!(lock.total_holds(), 0);
        assert!(!lock.is_poisoned());
    }

    /// Thread A panics *inside* an ADT operation: the instance is poisoned,
    /// thread B's conflicting acquisition fails fast (no hang), and after
    /// `clear_poison` B proceeds. Counters are zero at quiescence.
    #[test]
    fn panic_mid_operation_poisons_but_never_strands() {
        let (t, m) = exclusive_lock();
        let lock = Arc::new(SemLock::new(t));
        let a = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let mut txn = Txn::new();
                    txn.lv(&lock, m);
                    txn.with_op(&lock, || panic!("worker died mid-operation"));
                }));
                assert!(r.is_err());
            })
        };
        a.join().unwrap();
        assert!(lock.is_poisoned());
        assert_eq!(lock.total_holds(), 0, "panicking thread leaked modes");
        let mut txn = Txn::new();
        let err = txn.try_lv(&lock, m).unwrap_err();
        assert!(matches!(err, LockError::Poisoned { .. }));
        lock.clear_poison();
        txn.try_lv(&lock, m).expect("clean after clear_poison");
        txn.unlock_all();
        assert_eq!(lock.total_holds(), 0);
    }

    /// The same scenario while B is *already blocked* on the conflicting
    /// mode: B must be woken and must observe the poison rather than being
    /// admitted onto the torn instance or hanging.
    #[test]
    fn blocked_acquirer_observes_poison() {
        let (t, m) = exclusive_lock();
        let lock = Arc::new(SemLock::new(t));
        let mut holder = Txn::new();
        holder.lv(&lock, m);
        let b = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                let mut txn = Txn::new();
                txn.lv_timeout(&lock, m, Duration::from_secs(10))
            })
        };
        // Give B time to block, then simulate the holder panicking
        // mid-operation: poison, release, unwind.
        std::thread::sleep(Duration::from_millis(30));
        let r = catch_unwind(AssertUnwindSafe(|| {
            holder.with_op(&lock, || panic!("holder died mid-operation"));
        }));
        assert!(r.is_err());
        drop(holder);
        let res = b.join().unwrap();
        assert!(
            matches!(res, Err(LockError::Poisoned { .. })),
            "blocked acquirer must see poison, got {res:?}"
        );
        assert_eq!(lock.total_holds(), 0);
    }
}
