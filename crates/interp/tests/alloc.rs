//! Allocation guard for the compiled request path.
//!
//! After warm-up, an uncontended `Interp::run_with_retry` on the compiled
//! engine must not touch the allocator: the register file and `RunState`
//! buffers are pooled per thread, the returned `Frame` and the attempt-id
//! trail are inline, the held set is lent to the bounded acquisition as a
//! slice, and resolving an instance clones nothing. The same holds with
//! the telemetry counters on: once a thread has counted a `(site, mode)`
//! key, counting it again is an increment in place. The benchmark can only
//! show this as time; a counting allocator shows it exactly, on any
//! machine.
//!
//! This binary holds exactly one test, and the counter is per thread, so
//! nothing else the harness does is counted.

use interp::{Engine, Env, Interp, Strategy};
use semlock::phi::Phi;
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;
use synth::Synthesizer;
use workloads::server::{balance_section, scan_mutate_section, transfer_section};
use workloads::synthesis::registry;

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

#[test]
fn warm_compiled_requests_do_not_allocate() {
    const SHARDS: u64 = 8;
    const KEYS: u64 = 64;
    let program = Arc::new(Synthesizer::new(registry()).phi(Phi::fib(64)).synthesize(&[
        transfer_section(),
        balance_section(),
        scan_mutate_section(),
    ]));
    let env = Arc::new(Env::new(program));
    let shards: Vec<Value> = (0..SHARDS).map(|_| env.new_instance("Map")).collect();
    // Every key present, as in the benchmark: requests take the
    // key-present path and the maps do not grow.
    for &h in &shards {
        let adt = env.resolve(h);
        let put = adt.obj.schema().method("put");
        for k in 0..KEYS {
            adt.obj.invoke(put, &[Value(k), Value(0)]);
        }
    }
    let interp = Interp::new(env.clone(), Strategy::Semantic)
        .with_lock_timeout(Duration::from_millis(100))
        .with_engine(Engine::Compiled);
    let policy = RetryPolicy::new(1);
    let shard = |i: u64| shards[(i % SHARDS) as usize];
    let request = |section: &str, i: u64| {
        let k = Value(i % KEYS);
        let run = match section {
            "transfer" => interp.run_with_retry(
                section,
                &[
                    ("src", shard(i)),
                    ("dst", shard(i + 1)),
                    ("ka", k),
                    ("kb", Value((i + 7) % KEYS)),
                ],
                &policy,
            ),
            "scan_mutate" => interp.run_with_retry(section, &[("m", shard(i)), ("k", k)], &policy),
            _ => interp.run_with_retry(section, &[("acct", shard(i)), ("k", k)], &policy),
        }
        .expect("an uncontended request failed");
        assert_eq!(run.attempts, 1);
        assert_eq!(run.txns.len(), 1);
        std::hint::black_box(run);
    };
    for counters in [false, true] {
        semlock::telemetry::set_enabled(counters);
        for section in ["balance", "transfer", "scan_mutate"] {
            // The warm-up visits every key the measured requests use, so
            // with the counters on it also creates every cell they touch.
            for i in 0..100 {
                request(section, i);
            }
            let before = allocations();
            for i in 0..1000 {
                request(section, i);
            }
            assert_eq!(
                allocations() - before,
                0,
                "1000 warm `{section}` requests allocated (telemetry counters: {counters})"
            );
        }
    }
    semlock::telemetry::set_enabled(false);
    let counted = semlock::telemetry::Metrics::collect();
    let admits: u64 = counted.per_site.values().map(|s| s.admits).sum();
    assert!(admits >= 3 * 1100, "the counters were on: {admits} admits");
    assert_eq!(counted.overflow, 0);
}
