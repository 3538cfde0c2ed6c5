//! The runtime environment of an interpreted program: ADT instances,
//! their semantic locks, and the global-wrapper instances.
//!
//! Pointer values in the interpreter are [`Value`]s holding instance ids
//! (or [`Value::NULL`]); the [`Registry`] resolves ids to live instances
//! with lock-free reads, so the engines borrow an instance per operation
//! instead of caching handles.

use adts::AdtDyn;
use baselines::BinaryLock;
use semlock::manager::SemLock;
use semlock::schema::{AdtSchema, MethodIdx};
use semlock::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use synth::SynthOutput;

/// One shared ADT instance with its synchronization state.
pub struct SharedAdt {
    /// The underlying linearizable ADT.
    pub obj: Box<dyn AdtDyn>,
    /// The semantic lock (present when the class has a mode table — i.e.
    /// the class is locked directly; wrapped classes are locked through
    /// their wrapper instead).
    pub sem: Option<SemLock>,
    /// Plain per-instance lock for the 2PL baseline.
    pub plain: BinaryLock,
    /// Process-unique instance id (doubles as the pointer value).
    pub id: u64,
}

impl SharedAdt {
    /// The semantic lock; panics if the class is not directly lockable.
    pub fn sem(&self) -> &SemLock {
        self.sem
            .as_ref()
            .expect("instance's class has no semantic lock (wrapped class?)")
    }
}

/// Slots in a registry's first chunk (16 KB of `OnceLock<Arc<_>>`); chunk
/// `k` holds `FIRST_CHUNK << k`.
const FIRST_CHUNK: u64 = 1024;

/// Chunks a registry can grow to: room for `FIRST_CHUNK * (2^32 - 1)` ids
/// past its base, far beyond what fits in memory.
const CHUNKS: usize = 32;

type Slot = OnceLock<Arc<SharedAdt>>;

/// Registry resolving instance ids to live instances.
///
/// Instances are never removed and ids come from one increasing
/// process-wide counter, so the registry is an insert-only table indexed
/// by `id - base`: a fixed directory of lazily allocated chunks, each
/// twice the size of the one before. A lookup is two `Acquire` loads —
/// no lock, no hashing, no reference-count traffic — so sections running
/// on different instances share no written cache line here. Ids drawn by
/// other environments leave unset slots, which a lookup reports as
/// dangling.
pub struct Registry {
    /// One past an id drawn when the registry was created: no instance
    /// registered afterwards has a smaller one.
    base: u64,
    chunks: [OnceLock<Box<[Slot]>>; CHUNKS],
    len: AtomicUsize,
}

impl Registry {
    /// An empty registry for instances created from now on.
    pub(crate) fn new() -> Registry {
        Registry {
            base: semlock::manager::fresh_instance_id() + 1,
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicUsize::new(0),
        }
    }

    /// `(chunk, index within it)` of an id, if it is in range.
    fn locate(&self, id: u64) -> Option<(usize, usize)> {
        // Chunk k starts at offset FIRST_CHUNK * (2^k - 1).
        let scaled = id.checked_sub(self.base)? / FIRST_CHUNK + 1;
        let chunk = scaled.ilog2() as usize;
        let start = FIRST_CHUNK * ((1u64 << chunk) - 1);
        (chunk < CHUNKS).then(|| (chunk, (id - self.base - start) as usize))
    }

    /// Borrow an instance (panics on dangling ids — the interpreter never
    /// frees instances during a run).
    pub fn get_ref(&self, id: u64) -> &Arc<SharedAdt> {
        self.locate(id)
            .and_then(|(chunk, i)| self.chunks[chunk].get()?[i].get())
            .unwrap_or_else(|| panic!("dangling ADT instance id {id}"))
    }

    /// Register an instance. Its id must have been drawn after this
    /// registry was created, and at most once.
    pub(crate) fn insert(&self, adt: Arc<SharedAdt>) {
        let id = adt.id;
        let (chunk, i) = self
            .locate(id)
            .unwrap_or_else(|| panic!("ADT instance id {id} is outside this registry's range"));
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        if slots[i].set(adt).is_err() {
            panic!("ADT instance id {id} registered twice");
        }
        // Ordering: Relaxed — a statistic; the slot's `OnceLock` publishes
        // the instance.
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dynamic ADT implementing a §3.4 global wrapper: dispatches
/// `Class_method(instance, args…)` to the wrapped instance.
pub struct WrapperDyn {
    schema: Arc<AdtSchema>,
    /// Wrapper method index → wrapped (class, method name).
    dispatch: Vec<(String, String)>,
    registry: Arc<Registry>,
}

impl AdtDyn for WrapperDyn {
    fn schema(&self) -> &Arc<AdtSchema> {
        &self.schema
    }

    fn invoke(&self, method: MethodIdx, args: &[Value]) -> Value {
        let (_, inner_name) = &self.dispatch[method];
        let handle = args[0];
        assert!(
            !handle.is_null(),
            "null dereference through global wrapper {}",
            self.schema.name()
        );
        let target = self.registry.get_ref(handle.0);
        let inner_method = target.obj.schema().method(inner_name);
        target.obj.invoke(inner_method, &args[1..])
    }
}

/// The environment: registry + the per-program wrapper instances.
pub struct Env {
    /// The synthesized program this environment executes.
    pub program: Arc<SynthOutput>,
    registry: Arc<Registry>,
    /// Wrapper class name → its single global instance handle.
    wrappers: HashMap<String, Value>,
}

impl Env {
    /// Create an environment for a synthesized program, instantiating one
    /// global instance per wrapper ADT.
    pub fn new(program: Arc<SynthOutput>) -> Env {
        let registry = Arc::new(Registry::new());
        let mut wrappers = HashMap::new();
        for w in &program.wrappers {
            let obj = Box::new(WrapperDyn {
                schema: w.schema.clone(),
                dispatch: w.dispatch.clone(),
                registry: registry.clone(),
            });
            let sem = if program.tables.contains(&w.name) {
                Some(SemLock::new(program.tables.table(&w.name).clone()))
            } else {
                None
            };
            let id = sem
                .as_ref()
                .map(|s| s.unique())
                .unwrap_or_else(semlock::manager::fresh_instance_id);
            let adt = Arc::new(SharedAdt {
                obj,
                sem,
                plain: BinaryLock::new(),
                id,
            });
            registry.insert(adt.clone());
            wrappers.insert(w.name.clone(), Value(id));
        }
        Env {
            program,
            registry,
            wrappers,
        }
    }

    /// The instance registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Create a new ADT instance of `class`, returning its handle.
    pub fn new_instance(&self, class: &str) -> Value {
        let obj = adts::new_instance(class);
        let sem = if self.program.tables.contains(class) {
            Some(SemLock::new(self.program.tables.table(class).clone()))
        } else {
            None
        };
        let id = sem
            .as_ref()
            .map(|s| s.unique())
            .unwrap_or_else(semlock::manager::fresh_instance_id);
        let adt = Arc::new(SharedAdt {
            obj,
            sem,
            plain: BinaryLock::new(),
            id,
        });
        self.registry.insert(adt.clone());
        Value(id)
    }

    /// Handle of a wrapper class's global instance.
    pub fn wrapper_handle(&self, class: &str) -> Value {
        *self
            .wrappers
            .get(class)
            .unwrap_or_else(|| panic!("no wrapper instance for class {class}"))
    }

    /// Resolve a non-null handle to a shared reference of its own (for
    /// callers that keep the instance; the engines borrow through
    /// [`Env::resolve_ref`]).
    pub fn resolve(&self, handle: Value) -> Arc<SharedAdt> {
        self.resolve_ref(handle).clone()
    }

    /// Borrow the instance behind a non-null handle: no lock, no
    /// reference-count update.
    #[inline]
    pub fn resolve_ref(&self, handle: Value) -> &Arc<SharedAdt> {
        assert!(!handle.is_null(), "null ADT dereference");
        self.registry.get_ref(handle.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::compile;
    use crate::{Interp, Strategy};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Barrier, Mutex};
    use synth::ir::fig1_section;

    fn env() -> Arc<Env> {
        Arc::new(Env::new(compile(vec![fig1_section()])))
    }

    /// Does resolving `id` panic with the dangling-id message?
    fn dangles(env: &Env, id: u64) -> bool {
        match catch_unwind(AssertUnwindSafe(|| env.resolve(Value(id)))) {
            Ok(_) => false,
            Err(payload) => payload
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("dangling ADT instance id")),
        }
    }

    #[test]
    fn concurrent_inserts_and_lookups_lose_nothing_across_chunk_growth() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        let env = env();
        let gate = Barrier::new(THREADS);
        let handles: Vec<Vec<Value>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        let mut mine = Vec::with_capacity(PER_THREAD);
                        for i in 0..PER_THREAD {
                            mine.push(env.new_instance("Map"));
                            if i % 64 == 0 {
                                for &h in &mine {
                                    assert_eq!(env.resolve_ref(h).id, h.0);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let all: Vec<Value> = handles.into_iter().flatten().collect();
        assert_eq!(env.registry().len(), THREADS * PER_THREAD);
        for &h in &all {
            assert_eq!(env.resolve(h).id, h.0);
        }
        // 8 000 ids past the base end in the fourth chunk (boundaries at
        // offsets 1 024, 3 072 and 7 168).
        let last = all.iter().map(|h| h.0).max().unwrap();
        let (chunk, _) = env.registry().locate(last).unwrap();
        assert!(chunk >= 3, "ids stayed in chunk {chunk}");
    }

    #[test]
    fn interleaved_environments_resolve_only_their_own_ids() {
        let (a, b) = (env(), env());
        let mut of_a = Vec::new();
        let mut of_b = Vec::new();
        for _ in 0..50 {
            of_a.push(a.new_instance("Set"));
            of_b.push(b.new_instance("Set"));
        }
        for (&ha, &hb) in of_a.iter().zip(&of_b) {
            assert_eq!(a.resolve(ha).id, ha.0);
            assert_eq!(b.resolve(hb).id, hb.0);
            assert!(dangles(&a, hb.0), "a resolved b's instance {hb}");
            assert!(dangles(&b, ha.0), "b resolved a's instance {ha}");
        }
        assert_eq!(a.registry().len(), 50);
        // Not assigned yet, and below the base.
        assert!(dangles(&a, semlock::manager::fresh_instance_id()));
        assert!(dangles(&a, a.registry().base - 1));
        assert!(dangles(&b, a.registry().base));
        assert!(dangles(&a, 0));
    }

    #[test]
    fn sections_that_allocate_register_while_other_threads_resolve() {
        const RUNNERS: u64 = 4;
        const RUNS: u64 = 150;
        let env = env();
        let map = env.new_instance("Map");
        let queue = env.new_instance("Queue");
        let interp = Interp::new(env.clone(), Strategy::Semantic);
        let created = Mutex::new(Vec::new());
        let gate = Barrier::new(RUNNERS as usize + 2);
        let running = AtomicUsize::new(RUNNERS as usize);
        std::thread::scope(|s| {
            for t in 0..RUNNERS {
                let (interp, created, gate, running) = (&interp, &created, &gate, &running);
                s.spawn(move || {
                    gate.wait();
                    for i in 0..RUNS {
                        // A fresh id and flag = 1: every run executes
                        // `New`, then unlinks the set from the map.
                        let id = Value(t * RUNS + i);
                        let frame = interp.run(
                            "fig1",
                            &[
                                ("map", map),
                                ("queue", queue),
                                ("id", id),
                                ("x", id),
                                ("y", id),
                                ("flag", Value(1)),
                            ],
                        );
                        created.lock().unwrap().push(frame["set"]);
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    while running.load(Ordering::SeqCst) > 0 {
                        let seen = created.lock().unwrap().clone();
                        for h in seen {
                            assert_eq!(env.resolve_ref(h).id, h.0);
                        }
                        assert_eq!(env.resolve_ref(map).id, map.0);
                    }
                });
            }
        });
        let created = created.into_inner().unwrap();
        assert_eq!(created.len() as u64, RUNNERS * RUNS);
        assert_eq!(env.registry().len() as u64, 2 + RUNNERS * RUNS);
        for h in created {
            assert_eq!(env.resolve(h).id, h.0);
        }
    }
}
