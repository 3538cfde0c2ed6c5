//! Tree-walk vs compiled equivalence.
//!
//! The compiled engine (`interp::compile`) must be observationally
//! indistinguishable from the tree-walker, which remains the reference
//! oracle. These tests run both engines against the **same** environment:
//!
//! * Instance ids and stable site ids are then shared, so telemetry
//!   events are directly comparable field by field.
//! * Both interpreters draw transaction ids from a local allocator
//!   ([`Interp::with_txn_ids`]) reset to the same base, so the pure
//!   [`FaultPlan::decide`] function — which hashes `(txn, instance,
//!   step)` — makes identical injection decisions in both phases.
//! * Between phases the tracked ADT instances are wiped back to their
//!   initial (empty) state and telemetry rings are reset.
//!
//! The compiled engine is held to *bitwise* agreement with the
//! tree-walker on results, lock/unlock telemetry sequences, fault
//! injections, poison outcomes and final ADT state, on every case.
//!
//! The proptest mirrors `crates/semlock/tests/fastpath.rs`: random
//! programs (branches, loops, colliding keys) under seeded schedules and
//! seeded fault plans (panics + forced timeouts).

use interp::{Engine, Env, Interp, Strategy};
use proptest::prelude::*;
use semlock::fault::{self, FaultPlan};
use semlock::telemetry::{self, EventKind, WaitCause};
use semlock::value::Value;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use synth::ir::{e::*, fig1_section, fig7_section, fig9_section, ptr, scalar, AtomicSection, Body};
use synth::{ClassRegistry, SynthOutput, Synthesizer};

/// Telemetry rings and the enabled flag are process-global: serialize
/// every test in this binary that touches them.
fn tele_guard() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn registry() -> ClassRegistry {
    let mut r = ClassRegistry::new();
    for class in ["Map", "Set", "Queue", "Multimap", "WeakMap"] {
        r.register(class, adts::schema_of(class), adts::spec_of(class));
    }
    r
}

fn synthesize(sections: Vec<AtomicSection>) -> Arc<SynthOutput> {
    Arc::new(
        Synthesizer::new(registry())
            .phi(semlock::phi::Phi::fib(64))
            .synthesize(&sections),
    )
}

/// What one section run observably did.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    /// Final frame, sorted by variable name.
    Ok(Vec<(String, Value)>),
    /// Abort error rendering.
    Err(String),
    /// Injected panic coordinates.
    Panic(String, u64, u64),
}

/// Telemetry event key: everything except thread id and timestamps.
type EventKey = (EventKind, WaitCause, u64, u64, u32, u32, u32);

struct PhaseResult {
    outcomes: Vec<Outcome>,
    events: Vec<EventKey>,
    /// Per run, per tracked instance: was it poisoned by that run?
    poisons: Vec<Vec<bool>>,
    /// Observable ADT state fingerprint after the last run.
    fingerprint: Vec<Value>,
}

const KEYS: u64 = 4;

/// Observable state of the tracked instances over the key range.
fn fingerprint(env: &Env, tracked: &[Value]) -> Vec<Value> {
    let mut out = Vec::new();
    for &h in tracked {
        let adt = env.resolve(h);
        let schema = adt.obj.schema();
        match schema.name() {
            "Map" => {
                let get = schema.method("get");
                out.extend((0..KEYS).map(|k| adt.obj.invoke(get, &[Value(k)])));
            }
            "Set" => {
                let contains = schema.method("contains");
                out.extend((0..KEYS).map(|k| adt.obj.invoke(contains, &[Value(k)])));
            }
            other => panic!("untracked class {other}"),
        }
    }
    out
}

/// Restore the tracked instances to their initial (empty) state.
fn wipe(env: &Env, tracked: &[Value]) {
    for &h in tracked {
        let adt = env.resolve(h);
        let schema = adt.obj.schema();
        let remove = schema.method("remove");
        for k in 0..KEYS {
            adt.obj.invoke(remove, &[Value(k)]);
        }
    }
}

fn assert_phases_equal(tree: &PhaseResult, comp: &PhaseResult) {
    assert_eq!(tree.outcomes, comp.outcomes, "per-run results diverge");
    assert_eq!(tree.poisons, comp.poisons, "poison outcomes diverge");
    assert_eq!(
        tree.fingerprint, comp.fingerprint,
        "final ADT state diverges"
    );
    assert_eq!(
        tree.events, comp.events,
        "lock/unlock event sequences diverge"
    );
}

/// Build a random section over a Map and a Set from an opcode list.
/// Opcodes 0..7 are leaf statements; 7 wraps two leaves in an if/else on
/// `v == null`; 8 wraps a leaf in a bounded counting loop.
fn build_section(spec: &[(u8, u64, u64)]) -> AtomicSection {
    fn leaf(body: Body, op: u64, key: u64) -> Body {
        let k = konst(key % KEYS);
        match op % 7 {
            0 => body.call_into("v", "m", "get", vec![var("k1")]),
            1 => body.call("m", "put", vec![var("k1"), add(var("v"), konst(1))]),
            2 => body.call("m", "put", vec![k, var("k2")]),
            3 => body.call("m", "remove", vec![var("k2")]),
            4 => body.call_into("t", "s", "contains", vec![var("k1")]),
            5 => body.call("s", "add", vec![var("k2")]),
            6 => body.call("s", "remove", vec![k]),
            _ => unreachable!(),
        }
    }
    let mut body = Body::new();
    for &(op, a, b) in spec {
        body = match op {
            0..=6 => leaf(body, op as u64, a),
            7 => body.if_else(
                is_null(var("v")),
                leaf(Body::new(), a, b),
                leaf(Body::new(), b, a),
            ),
            _ => {
                let iters = a % 3 + 1;
                body.assign("i", konst(0)).while_loop(
                    lt(var("i"), konst(iters)),
                    leaf(Body::new(), b, a).assign("i", add(var("i"), konst(1))),
                )
            }
        };
    }
    AtomicSection::new(
        "rand",
        [
            ptr("m", "Map"),
            ptr("s", "Set"),
            scalar("k1"),
            scalar("k2"),
            scalar("v"),
            scalar("t"),
            scalar("i"),
        ],
        body.build(),
    )
}

/// Shared harness: same env, same txn base, both engines.
fn check_equivalence(
    program: Arc<SynthOutput>,
    section: &str,
    schedule: &[(u64, u64)],
    fault_seed: u64,
    panic_ppm: u32,
    timeout_ppm: u32,
    txn_base: u64,
) {
    let _g = tele_guard();
    fault::silence_injected_panics();
    telemetry::set_level(telemetry::Level::Trace);
    let env = Arc::new(Env::new(program));
    let m = env.new_instance("Map");
    let s = env.new_instance("Set");
    let tracked = [m, s];
    let plan = Arc::new(
        FaultPlan::new(fault_seed)
            .with_panics(panic_ppm)
            .with_timeouts(timeout_ppm),
    );
    let tree = Interp::new(env.clone(), Strategy::Semantic)
        .with_faults(plan.clone())
        .with_txn_ids(txn_base);
    let comp = Interp::new(env.clone(), Strategy::Semantic)
        .with_faults(plan)
        .with_txn_ids(txn_base)
        .with_engine(Engine::Compiled);
    // Bind the same instances in both phases via args.
    let bound: Vec<(u64, u64)> = schedule.to_vec();
    let run = |interp: &Interp| {
        // Rebind map/set pointers per run through the schedule arguments.
        telemetry::reset();
        let mut outcomes = Vec::new();
        let mut poisons = Vec::new();
        for &(k1, k2) in &bound {
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                interp.try_run(
                    section,
                    &[("m", m), ("s", s), ("k1", Value(k1)), ("k2", Value(k2))],
                )
            }));
            outcomes.push(match r {
                Ok(Ok(frame)) => {
                    let mut vars: Vec<(String, Value)> = frame.into_iter().collect();
                    vars.sort();
                    Outcome::Ok(vars)
                }
                Ok(Err(e)) => Outcome::Err(e.to_string()),
                Err(payload) => {
                    let ip = fault::injected(&*payload)
                        .expect("a genuine (non-injected) panic escaped the executor");
                    Outcome::Panic(format!("{:?}", ip.point), ip.txn, ip.instance)
                }
            });
            let mut p = Vec::new();
            for &h in &tracked {
                let adt = env.resolve(h);
                let poisoned = adt.sem.is_some() && adt.sem().is_poisoned();
                p.push(poisoned);
                if poisoned {
                    adt.sem().clear_poison();
                }
                assert_eq!(
                    adt.sem.as_ref().map_or(0, |x| x.total_holds()),
                    0,
                    "mode leak"
                );
            }
            poisons.push(p);
        }
        let fp = fingerprint(&env, &tracked);
        let (events, dropped) = telemetry::snapshot();
        assert_eq!(dropped, 0);
        let events = events
            .iter()
            .map(|e| {
                (
                    e.kind,
                    e.cause,
                    e.txn,
                    e.instance,
                    e.mode,
                    e.other_mode,
                    e.site,
                )
            })
            .collect();
        wipe(&env, &tracked);
        PhaseResult {
            outcomes,
            events,
            poisons,
            fingerprint: fp,
        }
    };
    let a = run(&tree);
    let b = run(&comp);
    telemetry::set_enabled(false);
    assert_phases_equal(&a, &b);
}

#[test]
fn counter_section_equivalent_with_faults() {
    let section = AtomicSection::new(
        "rand",
        [
            ptr("m", "Map"),
            ptr("s", "Set"),
            scalar("k1"),
            scalar("k2"),
            scalar("v"),
            scalar("t"),
            scalar("i"),
        ],
        Body::new()
            .call_into("v", "m", "get", vec![var("k1")])
            .if_else(
                is_null(var("v")),
                Body::new().call("m", "put", vec![var("k1"), konst(1)]),
                Body::new().call("m", "put", vec![var("k1"), add(var("v"), konst(1))]),
            )
            .build(),
    );
    let program = synthesize(vec![section]);
    let schedule: Vec<(u64, u64)> = (0..120).map(|i| (i % KEYS, (i * 7) % KEYS)).collect();
    check_equivalence(program, "rand", &schedule, 42, 120_000, 120_000, 1 << 40);
}

#[test]
fn fig7_equivalent_with_faults() {
    // fig7 locks two map-gotten sets plus the map and queue: exercises
    // multi-instance acquisition and release ordering. Run it through the
    // generic harness shape by adapting its argument names.
    let _g = tele_guard();
    fault::silence_injected_panics();
    telemetry::set_level(telemetry::Level::Trace);
    let program = synthesize(vec![fig7_section()]);
    let env = Arc::new(Env::new(program));
    let m = env.new_instance("Map");
    let q = env.new_instance("Queue");
    // Seed sets under a few keys; fig7 only reads the map and mutates the
    // sets/queue.
    let m_adt = env.resolve(m);
    let put = m_adt.obj.schema().method("put");
    let mut sets = Vec::new();
    for k in 0..KEYS {
        let set = env.new_instance("Set");
        m_adt.obj.invoke(put, &[Value(k), set]);
        sets.push(set);
    }
    let plan = Arc::new(
        FaultPlan::new(7)
            .with_panics(100_000)
            .with_timeouts(100_000),
    );
    let base = 1 << 41;
    let tree = Interp::new(env.clone(), Strategy::Semantic)
        .with_faults(plan.clone())
        .with_txn_ids(base);
    let comp = Interp::new(env.clone(), Strategy::Semantic)
        .with_faults(plan)
        .with_txn_ids(base)
        .with_engine(Engine::Compiled);
    let run = |interp: &Interp| {
        telemetry::reset();
        let mut outcomes = Vec::new();
        let mut poisons = Vec::new();
        for i in 0..100u64 {
            let (k1, k2) = (i % KEYS, (i + 1) % KEYS);
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                interp.try_run(
                    "fig7",
                    &[("m", m), ("q", q), ("key1", Value(k1)), ("key2", Value(k2))],
                )
            }));
            outcomes.push(match r {
                Ok(Ok(frame)) => {
                    let mut vars: Vec<(String, Value)> = frame.into_iter().collect();
                    vars.sort();
                    Outcome::Ok(vars)
                }
                Ok(Err(e)) => Outcome::Err(e.to_string()),
                Err(payload) => {
                    let ip = fault::injected(&*payload).expect("genuine panic escaped");
                    Outcome::Panic(format!("{:?}", ip.point), ip.txn, ip.instance)
                }
            });
            let mut p = Vec::new();
            for h in [m, q].iter().chain(&sets) {
                let adt = env.resolve(*h);
                let poisoned = adt.sem.as_ref().is_some_and(|sem| sem.is_poisoned());
                p.push(poisoned);
                if let Some(sem) = &adt.sem {
                    if poisoned {
                        sem.clear_poison();
                    }
                    assert_eq!(sem.total_holds(), 0, "mode leak");
                }
            }
            poisons.push(p);
        }
        let (events, dropped) = telemetry::snapshot();
        assert_eq!(dropped, 0);
        let events: Vec<EventKey> = events
            .iter()
            .map(|e| {
                (
                    e.kind,
                    e.cause,
                    e.txn,
                    e.instance,
                    e.mode,
                    e.other_mode,
                    e.site,
                )
            })
            .collect();
        // Drain the queue and set contents so the next phase starts equal.
        let q_adt = env.resolve(q);
        let deq = q_adt.obj.schema().method("dequeue");
        let mut drained = Vec::new();
        loop {
            let v = q_adt.obj.invoke(deq, &[]);
            if v.is_null() {
                break;
            }
            drained.push(v);
        }
        for &set in &sets {
            let s_adt = env.resolve(set);
            let rm = s_adt.obj.schema().method("remove");
            for v in 0..KEYS {
                s_adt.obj.invoke(rm, &[Value(v)]);
            }
        }
        // The queue's drained contents are the observable final state.
        PhaseResult {
            outcomes,
            events,
            poisons,
            fingerprint: drained,
        }
    };
    let a = run(&tree);
    let b = run(&comp);
    telemetry::set_enabled(false);
    assert_phases_equal(&a, &b);
}

#[test]
fn fig9_wrapper_equivalent() {
    // The cyclic-graph section runs through its global wrapper: the
    // compiled engine must bind the wrapper pointer and dispatch wrapper
    // methods identically.
    let _g = tele_guard();
    telemetry::set_level(telemetry::Level::Trace);
    let program = synthesize(vec![fig9_section()]);
    assert_eq!(program.wrappers.len(), 1);
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    let m_adt = env.resolve(map);
    let put = m_adt.obj.schema().method("put");
    for i in 0..3u64 {
        let set = env.new_instance("Set");
        let s_adt = env.resolve(set);
        let add = s_adt.obj.schema().method("add");
        for v in 0..=i {
            s_adt.obj.invoke(add, &[Value(v)]);
        }
        m_adt.obj.invoke(put, &[Value(i), set]);
    }
    let base = 1 << 42;
    let tree = Interp::new(env.clone(), Strategy::Semantic).with_txn_ids(base);
    let comp = Interp::new(env.clone(), Strategy::Semantic)
        .with_txn_ids(base)
        .with_engine(Engine::Compiled);
    let run = |interp: &Interp| {
        telemetry::reset();
        let frame = interp.run("fig9", &[("map", map), ("n", Value(3))]);
        let (events, _) = telemetry::snapshot();
        let events: Vec<EventKey> = events
            .iter()
            .map(|e| {
                (
                    e.kind,
                    e.cause,
                    e.txn,
                    e.instance,
                    e.mode,
                    e.other_mode,
                    e.site,
                )
            })
            .collect();
        (frame["sum"], events)
    };
    let a = run(&tree);
    let b = run(&comp);
    telemetry::set_enabled(false);
    assert_eq!(a.0, Value(1 + 2 + 3));
    assert_eq!(a, b);
}

#[test]
fn fig1_compiled_matches_treewalk_effects() {
    // fig1 allocates a fresh Set per run, so instance ids differ between
    // phases; compare scalar frame variables and observable ADT effects
    // instead of raw handles.
    let program = synthesize(vec![fig1_section()]);
    let env = Arc::new(Env::new(program));
    let comp = Interp::new(env.clone(), Strategy::Semantic).with_engine(Engine::Compiled);
    let map = env.new_instance("Map");
    let queue = env.new_instance("Queue");
    let frame = comp.run(
        "fig1",
        &[
            ("map", map),
            ("queue", queue),
            ("id", Value(7)),
            ("x", Value(1)),
            ("y", Value(2)),
            ("flag", Value(1)),
        ],
    );
    // flag=1: the set was enqueued and removed from the map.
    let map_adt = env.resolve(map);
    let get = map_adt.obj.schema().method("get");
    assert_eq!(map_adt.obj.invoke(get, &[Value(7)]), Value::NULL);
    let q_adt = env.resolve(queue);
    let size = q_adt.obj.schema().method("size");
    assert_eq!(q_adt.obj.invoke(size, &[]), Value(1));
    let set_adt = env.resolve(frame["set"]);
    let contains = set_adt.obj.schema().method("contains");
    assert_eq!(set_adt.obj.invoke(contains, &[Value(1)]), Value::TRUE);
    assert_eq!(set_adt.obj.invoke(contains, &[Value(2)]), Value::TRUE);
}

#[test]
fn both_engines_return_the_same_frame_type() {
    // One `Frame` for both engines: declared variables in slot order,
    // readable by name, by iteration, and as owned `(name, value)` pairs.
    let program = synthesize(vec![fig1_section()]);
    let env = Arc::new(Env::new(program));
    let tree = Interp::new(env.clone(), Strategy::Semantic);
    let comp = Interp::new(env.clone(), Strategy::Semantic).with_engine(Engine::Compiled);
    let map = env.new_instance("Map");
    let queue = env.new_instance("Queue");
    let args = [
        ("map", map),
        ("queue", queue),
        ("id", Value(3)),
        ("x", Value(5)),
        ("y", Value(6)),
        ("flag", Value(0)),
    ];
    let fast = comp.run_compiled("fig1", &args);
    assert_eq!(fast["id"], Value(3));
    assert_eq!(fast["x"], Value(5));
    assert_eq!(fast.get("nope"), None);
    let slow = tree.run("fig1", &args);
    let names = |f: &interp::Frame| f.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(&fast), names(&slow));
    let owned: Vec<(String, Value)> = fast.into_iter().collect();
    assert!(owned.contains(&("y".to_string(), Value(6))));
    assert_eq!(slow["y"], Value(6));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs + seeded schedules + seeded fault plans: both
    /// engines must agree on results, event sequences, and poison
    /// outcomes, run by run.
    #[test]
    fn random_programs_equivalent(
        spec in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>()), 1..8),
        schedule in proptest::collection::vec((0u64..KEYS, 0u64..KEYS), 1..24),
        fault_seed in any::<u64>(),
        panic_ppm in prop_oneof![Just(0u32), Just(150_000u32)],
        timeout_ppm in prop_oneof![Just(0u32), Just(150_000u32)],
        base_off in 0u64..1 << 20,
    ) {
        let section = build_section(&spec);
        let program = synthesize(vec![section]);
        check_equivalence(
            program,
            "rand",
            &schedule,
            fault_seed,
            panic_ppm,
            timeout_ppm,
            (1 << 43) + (base_off << 10),
        );
    }
}
