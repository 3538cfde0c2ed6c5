//! Machine-readable benchmark runner: emits `BENCH_PR10.json` with
//! micro-benchmark latencies (telemetry off vs on), the packed-vs-wide
//! admission A/B, the Dwcas-vs-packed admission A/B, the contended
//! park/handoff A/B (claim stack vs counters-under-mutex parking), the
//! compiled-vs-tree-walk interpreter A/B, the open-loop server
//! goodput/latency table, workload throughput sweeps, lock-contention
//! counters, and telemetry summaries.
//!
//! ```text
//! cargo run --release --bin bench_json -- --out BENCH_PR10.json
//! cargo run --release --bin bench_json -- --ops 5000 --threads 1,4 \
//!     --against BENCH_PR3.json --against BENCH_PR4.json \
//!     --against BENCH_PR5.json --against BENCH_PR7.json \
//!     --against BENCH_PR8.json --against BENCH_PR9.json \
//!     --against BENCH_PR10.json --tolerance 0.10
//! ```
//!
//! With `--against` (repeatable), the telemetry-off micro benches are
//! compared to each baseline file and the process exits non-zero if any
//! regresses by more than `--tolerance` (default 10%). Comparison uses
//! `rel` — each latency normalized by an in-process arithmetic
//! calibration loop — so the gate is about the runtime's relative cost,
//! not the machine CI happens to land on. Baselines only gate micro
//! names they contain, so an older baseline (PR 3) and a newer one
//! (PR 4, which adds the admission A/B entries) compose.

use semlock::manager::SemLock;
use semlock::mode::ModeTable;
use semlock::phi::Phi;
use semlock::symbolic::{SymArg, SymOp, SymbolicSet};
use semlock::telemetry;
use semlock::txn::Txn;
use semlock::value::Value;
use semlock::{AcquireSpec, AdmissionBackend, WaitStrategy};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::driver::measure;
use workloads::{ComputeIfAbsent, ServerConfig, ServerReport, SyncKind};

struct Config {
    ops: u64,
    threads: Vec<usize>,
    out: Option<String>,
    against: Vec<String>,
    tolerance: f64,
    telemetry_workloads: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_json [--ops N] [--threads 1,2,4] [--out FILE] \
         [--against FILE]... [--tolerance F] [--telemetry]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        ops: 20_000,
        threads: vec![1, 2, 4],
        out: None,
        against: Vec::new(),
        tolerance: 0.10,
        telemetry_workloads: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match a.as_str() {
            "--ops" => cfg.ops = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--threads" => {
                cfg.threads = val(&mut args)
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .filter(|&t| t > 0)
                    .collect();
                if cfg.threads.is_empty() {
                    usage();
                }
            }
            "--out" => cfg.out = Some(val(&mut args)),
            "--against" => cfg.against.push(val(&mut args)),
            "--tolerance" => cfg.tolerance = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--telemetry" => cfg.telemetry_workloads = true,
            _ => usage(),
        }
    }
    // The environment toggle composes with the flag (CI sets the env var).
    if workloads::driver::telemetry_from_env() {
        cfg.telemetry_workloads = true;
    }
    cfg
}

/// The ComputeIfAbsent mode table used by every micro loop.
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

/// Median-of-5 ns/op of `op` over `iters` iterations per pass.
fn time_ns_per_op<F: FnMut()>(iters: u64, mut op: F) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[2]
}

/// Machine-speed proxy: ns/op of a fixed arithmetic loop. Micro results
/// are reported as multiples of this so baselines transfer across hosts.
fn calibrate() -> f64 {
    let mut x = 0x9E3779B97F4A7C15u64;
    time_ns_per_op(200_000, || {
        for _ in 0..16 {
            x = x.wrapping_mul(0x2545F4914F6CDD1D).rotate_left(17);
        }
        std::hint::black_box(x);
    })
}

/// One timed pass (no median): the admission A/B takes min-of-N over
/// *interleaved* passes instead, so frequency drift hits both sides.
fn one_pass_ns<F: FnMut()>(iters: u64, op: &mut F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        op();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

struct MicroResult {
    name: &'static str,
    off_ns: f64,
    on_ns: f64,
}

/// The synthesized counter section every interpreter measurement runs
/// (the Fig. 1 read-modify-write shape over one `Map`).
fn counter_program() -> Arc<synth::SynthOutput> {
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};
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
    Arc::new(
        Synthesizer::new(registry)
            .phi(Phi::fib(64))
            .synthesize(&[section]),
    )
}

/// The engine-gap section the interpreter A/B measures: the Fig. 1
/// read-modify-write counter followed by a bounded read-back loop (the
/// validate-after-update idiom). The loop is where the engines diverge
/// hardest — the tree-walk re-matches the condition expression and
/// rebuilds name-keyed frames every iteration, while the compiled tape
/// runs it as a handful of register ops — so the section exercises both
/// the per-call costs the engines share and the interpretive overhead
/// they do not.
fn engine_gap_program() -> Arc<synth::SynthOutput> {
    use synth::ir::{e::*, ptr, scalar, AtomicSection, Body};
    use synth::{ClassRegistry, Synthesizer};
    let mut registry = ClassRegistry::new();
    registry.register("Map", adts::schema_of("Map"), adts::spec_of("Map"));
    let section = AtomicSection::new(
        "counter",
        [ptr("map", "Map"), scalar("k"), scalar("v"), scalar("i")],
        Body::new()
            .call_into("v", "map", "get", vec![var("k")])
            .if_else(
                is_null(var("v")),
                Body::new().call("map", "put", vec![var("k"), konst(1)]),
                Body::new().call("map", "put", vec![var("k"), add(var("v"), konst(1))]),
            )
            .assign("i", konst(0))
            .while_loop(
                lt(var("i"), konst(8)),
                Body::new()
                    .call_into("v", "map", "get", vec![var("k")])
                    .assign("i", add(var("i"), konst(1))),
            )
            .build(),
    );
    Arc::new(
        Synthesizer::new(registry)
            .phi(Phi::fib(64))
            .synthesize(&[section]),
    )
}

/// Compiled-vs-tree-walk interpreter A/B: the same engine-gap section on
/// the same environment and instance, executed by the tree-walking
/// oracle and by the compiled op tape, `ROUNDS` alternating passes, min
/// per side — the headline number the PR 5 acceptance gate checks,
/// tightened to ≥ 4× by PR 10.
struct InterpAb {
    rounds: u32,
    treewalk_ns: f64,
    compiled_ns: f64,
}

fn run_interp_ab(ops: u64) -> InterpAb {
    use interp::{Engine, Env, Interp, Strategy};
    const ROUNDS: u32 = 8;
    let program = engine_gap_program();
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    let tree = Interp::new(env.clone(), Strategy::Semantic);
    let comp = Interp::new(env.clone(), Strategy::Semantic).with_engine(Engine::Compiled);
    let iters = ops.clamp(1_000, 20_000);
    // Hot key: the section's cost is then the engine's own — dispatch,
    // frame access, instance resolution, mode selection — not the map's
    // cache misses. (PR 17 sped up both sides, the tree-walker through
    // the lock-free registry and the compiled engine through the rest of
    // the request path; the ratio stayed at ~4.1×, so the floor did too.)
    let tree_pass = || {
        one_pass_ns(iters, &mut || {
            tree.run("counter", &[("map", map), ("k", Value(7))]);
        })
    };
    let comp_pass = || {
        one_pass_ns(iters, &mut || {
            comp.run_compiled("counter", &[("map", map), ("k", Value(7))]);
        })
    };
    // Warm both sides (and populate the key range) before timing.
    tree_pass();
    comp_pass();
    let (mut treewalk_ns, mut compiled_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        treewalk_ns = treewalk_ns.min(tree_pass());
        compiled_ns = compiled_ns.min(comp_pass());
    }
    InterpAb {
        rounds: ROUNDS,
        treewalk_ns,
        compiled_ns,
    }
}

/// Uncontended-admission A/B: the same `acquire`/`unlock` loop against
/// two instances of the same mode table, one forced to the packed-word
/// counter representation (single-CAS fast path), one forced to the
/// counters-under-mutex representation. `ROUNDS` alternating
/// packed/wide passes, min per side — the headline number the PR 4
/// acceptance gate checks (`packed_rel <= wide_rel` within tolerance).
struct AdmissionAb {
    rounds: u32,
    packed_ns: f64,
    wide_ns: f64,
}

fn run_admission_ab(ops: u64) -> AdmissionAb {
    const ROUNDS: u32 = 8;
    let (table, site) = cia_table(64);
    let mode = table.select(site, &[Value(7)]);
    // `AdmissionBackend::Packed` (not `Auto`) so the build asserts every
    // partition really fits the packed word — an Auto that silently fell
    // back to wide would make the A/B compare wide against wide.
    let packed =
        SemLock::with_backend(table.clone(), WaitStrategy::Block, AdmissionBackend::Packed);
    let wide = SemLock::with_backend(table.clone(), WaitStrategy::Block, AdmissionBackend::Wide);
    let spec = AcquireSpec::new(mode);
    let iters = ops.max(1000);
    let pass = |lock: &SemLock| {
        one_pass_ns(iters, &mut || {
            lock.acquire(&spec).expect("uncontended admission");
            lock.unlock(mode);
        })
    };
    // Warm both sides once before timing.
    pass(&packed);
    pass(&wide);
    let (mut packed_ns, mut wide_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        packed_ns = packed_ns.min(pass(&packed));
        wide_ns = wide_ns.min(pass(&wide));
    }
    AdmissionAb {
        rounds: ROUNDS,
        packed_ns,
        wide_ns,
    }
}

/// Dwcas-vs-packed uncontended admission A/B: the identical
/// `acquire`/`unlock` loop against the 128-bit DWCAS word and the 64-bit
/// packed word, plus an in-process measurement of the *raw* word-op floor
/// (bare load + compare-exchange on an `AtomicU64` vs the `AtomicU128`).
///
/// `lock cmpxchg16b` is architecturally pricier than a 64-bit
/// `lock cmpxchg` — by a machine-dependent factor (≈1.0–1.6× across
/// common parts). That hardware delta is not a property of the admission
/// protocol, so the gate factors it out: the measured raw ratio scales
/// the `dwcas_over_packed <= 1.15` bound. What remains gated is the
/// *software* overhead of the Dwcas path — an extra locked op, a fatter
/// admit computation, or a lost inline all trip it; the host's wide-CAS
/// lottery does not. On hardware where both CASes cost the same, the
/// bound degenerates to the plain 1.15×. When the host lacks
/// `cmpxchg16b` (or the `dwcas` feature is off) the numbers describe the
/// spinlock fallback and the gate is skipped.
struct DwcasAb {
    rounds: u32,
    dwcas_ns: f64,
    packed_ns: f64,
    raw64_ns: f64,
    raw128_ns: f64,
    native: bool,
}

fn run_dwcas_ab(ops: u64) -> DwcasAb {
    use semlock::dwcas::AtomicU128;
    use std::sync::atomic::{AtomicU64, Ordering};
    const ROUNDS: u32 = 8;
    let (table, site) = cia_table(64);
    let mode = table.select(site, &[Value(7)]);
    let dwcas = SemLock::with_backend(table.clone(), WaitStrategy::Block, AdmissionBackend::Dwcas);
    let packed =
        SemLock::with_backend(table.clone(), WaitStrategy::Block, AdmissionBackend::Packed);
    let spec = AcquireSpec::new(mode);
    let iters = ops.max(1000);
    let pass = |lock: &SemLock| {
        one_pass_ns(iters, &mut || {
            lock.acquire(&spec).expect("uncontended admission");
            lock.unlock(mode);
        })
    };
    // The raw floor: the admission loop's exact uncontended shape (one
    // plain load, one successful compare-exchange) on bare words.
    let w64 = AtomicU64::new(0);
    let raw64_pass = || {
        one_pass_ns(iters, &mut || {
            let c = w64.load(Ordering::Relaxed);
            let _ = w64.compare_exchange_weak(
                c,
                c.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        })
    };
    let w128 = AtomicU128::new(0);
    let raw128_pass = || {
        one_pass_ns(iters, &mut || {
            let c = w128.load(Ordering::Relaxed);
            let _ = w128.compare_exchange_weak(
                c,
                c.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        })
    };
    pass(&dwcas);
    pass(&packed);
    raw64_pass();
    raw128_pass();
    let (mut dwcas_ns, mut packed_ns) = (f64::INFINITY, f64::INFINITY);
    let (mut raw64_ns, mut raw128_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        dwcas_ns = dwcas_ns.min(pass(&dwcas));
        packed_ns = packed_ns.min(pass(&packed));
        raw64_ns = raw64_ns.min(raw64_pass());
        raw128_ns = raw128_ns.min(raw128_pass());
    }
    DwcasAb {
        rounds: ROUNDS,
        dwcas_ns,
        packed_ns,
        raw64_ns,
        raw128_ns,
        native: semlock::dwcas::dwcas_available(),
    }
}

/// Contended park/handoff A/B: two threads ping-pong over one
/// self-conflicting mode, so every acquisition parks and every release
/// hands off a wakeup. The packed mech parks on the claim-based lock-free
/// stack; the wide mech parks on the internal mutex/condvar — the same
/// workload, so the ratio isolates the handoff protocol itself. Min-of-N
/// interleaved passes; the gate is `claim_over_mutex <= 1.0` plus
/// tolerance (the lock-free handoff must not cost more than the lock it
/// replaced under the contention it was built for).
struct HandoffAb {
    rounds: u32,
    claim_ns: f64,
    mutex_ns: f64,
}

fn handoff_pass(mech: &Arc<semlock::mech::Mech>, iters: u64) -> f64 {
    use semlock::mech::ConflictSet;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let mech = Arc::clone(mech);
            scope.spawn(move || {
                let cs = ConflictSet::new(&[0]);
                for _ in 0..iters {
                    mech.lock(0, cs);
                    assert!(mech.unlock(0));
                }
            });
        }
    });
    t0.elapsed().as_nanos() as f64 / (2 * iters) as f64
}

fn run_handoff_ab(ops: u64) -> HandoffAb {
    use semlock::mech::Mech;
    const ROUNDS: u32 = 8;
    let claim = Arc::new(Mech::with_backend(
        1,
        WaitStrategy::Block,
        AdmissionBackend::Packed,
    ));
    let mutex = Arc::new(Mech::with_backend(
        1,
        WaitStrategy::Block,
        AdmissionBackend::Wide,
    ));
    let iters = ops.clamp(1_000, 20_000);
    handoff_pass(&claim, iters);
    handoff_pass(&mutex, iters);
    let (mut claim_ns, mut mutex_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        claim_ns = claim_ns.min(handoff_pass(&claim, iters));
        mutex_ns = mutex_ns.min(handoff_pass(&mutex, iters));
    }
    HandoffAb {
        rounds: ROUNDS,
        claim_ns,
        mutex_ns,
    }
}

/// Fixed seed for the server bench: the goodput table in the checked-in
/// baseline must describe one reproducible workload, not a drifting one.
const SERVER_SEED: u64 = 7;

/// The open-loop server workload at the PR 7 bench shape — ≥1M keys over
/// 1024 shards, Zipfian arrivals, mixed transfer/read/scan through
/// `run_with_retry` behind an admission throttle — scaled by `--ops` so
/// the CI smoke stays quick while the default is a real soak.
fn run_server_bench(ops: u64) -> ServerReport {
    let mut cfg = ServerConfig::bench(SERVER_SEED);
    cfg.requests = (ops * 2).clamp(8_000, 40_000);
    workloads::run_server(&cfg).expect("server invariants")
}

fn run_micros(ops: u64) -> Vec<MicroResult> {
    let (table, site) = cia_table(64);
    let lock = SemLock::new(table.clone());
    let mode = table.select(site, &[Value(7)]);
    let iters = ops.max(1000);
    let mut results = Vec::new();
    type Micro<'a> = (&'static str, Box<dyn FnMut() + 'a>);
    let micros: Vec<Micro> = vec![
        (
            "lv_unlock_all",
            Box::new({
                let lock = &lock;
                move || {
                    let mut txn = Txn::new();
                    txn.lv(lock, mode);
                    txn.unlock_all();
                }
            }),
        ),
        (
            "try_lv_unlock_all",
            Box::new({
                let lock = &lock;
                move || {
                    let mut txn = Txn::new();
                    txn.try_lv(lock, mode).expect("uncontended");
                    txn.unlock_all();
                }
            }),
        ),
        (
            "lv_deadline_unlock_all",
            Box::new({
                let lock = &lock;
                move || {
                    let mut txn = Txn::new();
                    txn.lv_timeout(lock, mode, Duration::from_secs(1))
                        .expect("uncontended");
                    txn.unlock_all();
                }
            }),
        ),
    ];
    for (name, mut op) in micros {
        telemetry::set_enabled(false);
        let off_ns = time_ns_per_op(iters, &mut op);
        telemetry::set_enabled(true);
        let on_ns = time_ns_per_op(iters, &mut op);
        telemetry::set_enabled(false);
        telemetry::reset();
        results.push(MicroResult {
            name,
            off_ns,
            on_ns,
        });
    }
    results
}

struct WorkloadResult {
    name: String,
    threads: usize,
    ops_per_sec: f64,
    acquisitions: u64,
    contended: u64,
    telemetry: Option<TelemetrySummary>,
}

/// What the telemetry counters hold for one workload: sums over its
/// `(site, mode)` cells, next to the lock's own count for the same span.
struct TelemetrySummary {
    acquires: u64,
    admits: u64,
    releases: u64,
    /// Boundaries the counters could not attribute to a cell.
    overflow: u64,
    /// Acquisitions the workload's lock counted itself while the counters
    /// were on — what `admits` must equal ([`check_telemetry`]).
    lock_acquisitions: u64,
    sites: usize,
    contended_acquires: u64,
    total_wait_ns: u64,
    max_wait_ns: u64,
}

fn summarize_telemetry(
    m: &semlock::telemetry::Metrics,
    lock_acquisitions: u64,
) -> TelemetrySummary {
    let mut t = TelemetrySummary {
        acquires: 0,
        admits: 0,
        releases: 0,
        overflow: m.overflow,
        lock_acquisitions,
        sites: m.per_site.len(),
        contended_acquires: 0,
        total_wait_ns: 0,
        max_wait_ns: 0,
    };
    for s in m.per_site.values() {
        t.acquires += s.acquires;
        t.admits += s.admits;
        t.releases += s.releases;
        t.contended_acquires += s.contended;
        t.total_wait_ns += s.total_wait_ns;
        t.max_wait_ns = t.max_wait_ns.max(s.max_wait_ns);
    }
    t
}

/// Zero the counters and switch them on; returns the workload lock's own
/// acquisition count at that moment.
fn start_counting(lock_acquisitions: &dyn Fn() -> u64) -> u64 {
    telemetry::reset();
    telemetry::set_enabled(true);
    lock_acquisitions()
}

/// Collect a per-workload telemetry summary for a semantic-locking
/// workload. With `--telemetry` the timed pass itself counted
/// (`counting_since` is what [`start_counting`] returned before it), so
/// summarize that; otherwise run `sample` — a short, untimed pass over
/// the same workload with the counters on — so the summary is always
/// present in the JSON (the timed numbers stay telemetry-free).
fn workload_telemetry(
    counting_since: Option<u64>,
    lock_acquisitions: &dyn Fn() -> u64,
    sample: &mut dyn FnMut(),
) -> Option<TelemetrySummary> {
    let since = counting_since.unwrap_or_else(|| {
        let since = start_counting(lock_acquisitions);
        sample();
        since
    });
    telemetry::set_enabled(false);
    let metrics = semlock::telemetry::Metrics::collect();
    telemetry::reset();
    Some(summarize_telemetry(&metrics, lock_acquisitions() - since))
}

/// Ops for the untimed telemetry sampling pass: enough to populate every
/// site without stretching the run.
const TELEMETRY_SAMPLE_OPS: u64 = 2_000;

fn run_workloads(cfg: &Config) -> Vec<WorkloadResult> {
    let mut results = Vec::new();
    let kinds = [
        (SyncKind::Semantic, "cia_semantic"),
        (SyncKind::Global, "cia_global"),
        (SyncKind::TwoPl, "cia_2pl"),
        (SyncKind::Manual, "cia_manual"),
    ];
    for &threads in &cfg.threads {
        for (kind, name) in kinds {
            let bench = ComputeIfAbsent::new(kind, 8192);
            // Only the semantic variant goes through `semlock` telemetry;
            // the baselines' entries stay `null`.
            let semantic = kind == SyncKind::Semantic;
            let lock_acquisitions = || bench.contention().0;
            let counting_since =
                (cfg.telemetry_workloads && semantic).then(|| start_counting(&lock_acquisitions));
            let m = measure(threads, cfg.ops, 1, 1, &|t, rng| bench.op(t, rng));
            let tel = if semantic {
                workload_telemetry(counting_since, &lock_acquisitions, &mut || {
                    measure(threads, TELEMETRY_SAMPLE_OPS, 0, 1, &|t, rng| {
                        bench.op(t, rng)
                    });
                })
            } else {
                None
            };
            bench.validate().expect("ComputeIfAbsent invariant");
            let (acq, cont) = bench.contention();
            results.push(WorkloadResult {
                name: name.to_string(),
                threads,
                ops_per_sec: m.ops_per_sec,
                acquisitions: acq,
                contended: cont,
                telemetry: tel,
            });
        }
        // The interpreted workload — the counter section through the full
        // IR executor — on both execution engines.
        for engine in [interp::Engine::TreeWalk, interp::Engine::Compiled] {
            results.push(run_interp_workload(cfg, threads, engine));
        }
    }
    results
}

fn run_interp_workload(cfg: &Config, threads: usize, engine: interp::Engine) -> WorkloadResult {
    use interp::{Engine, Env, Interp, Strategy};
    use rand::Rng;
    let program = counter_program();
    let env = Arc::new(Env::new(program));
    let map = env.new_instance("Map");
    let interp = Interp::new(env.clone(), Strategy::Semantic).with_engine(engine);
    let op = |rng: &mut rand::rngs::SmallRng| {
        let k = Value(rng.gen_range(0..1024u64));
        if engine == Engine::Compiled {
            interp.run_compiled("counter", &[("map", map), ("k", k)]);
        } else {
            interp.run("counter", &[("map", map), ("k", k)]);
        }
    };
    let lock_acquisitions = || env.resolve(map).sem().contention().0;
    let counting_since = cfg
        .telemetry_workloads
        .then(|| start_counting(&lock_acquisitions));
    let m = measure(threads, cfg.ops.min(20_000), 1, 1, &|_, rng| op(rng));
    let tel = workload_telemetry(counting_since, &lock_acquisitions, &mut || {
        measure(threads, TELEMETRY_SAMPLE_OPS, 0, 1, &|_, rng| op(rng));
    });
    let (acq, cont) = env.resolve(map).sem().contention();
    WorkloadResult {
        name: match engine {
            Engine::TreeWalk => "interp_counter_semantic".to_string(),
            Engine::Compiled => "interp_counter_semantic_compiled".to_string(),
        },
        threads,
        ops_per_sec: m.ops_per_sec,
        acquisitions: acq,
        contended: cont,
        telemetry: tel,
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cal: f64,
    micros: &[MicroResult],
    admission: &AdmissionAb,
    dwcas: &DwcasAb,
    handoff: &HandoffAb,
    interp_ab: &InterpAb,
    server: &ServerReport,
    workloads: &[WorkloadResult],
    cfg: &Config,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"semlock-bench/v1\",\n");
    out.push_str("  \"pr\": 10,\n");
    let threads: Vec<String> = cfg.threads.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(
        out,
        "  \"config\": {{\"ops\": {}, \"threads\": [{}]}},",
        cfg.ops,
        threads.join(", ")
    );
    let _ = writeln!(out, "  \"calibration_ns_per_op\": {},", fmt_f(cal));
    out.push_str("  \"micro\": [\n");
    for (i, m) in micros.iter().enumerate() {
        let overhead_pct = (m.on_ns - m.off_ns) / m.off_ns * 100.0;
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"telemetry\": \"off\", \"ns_per_op\": {}, \"rel\": {}}},",
            m.name,
            fmt_f(m.off_ns),
            fmt_f(m.off_ns / cal)
        );
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"telemetry\": \"on\", \"ns_per_op\": {}, \"rel\": {}, \
             \"overhead_pct\": {}}}{}",
            m.name,
            fmt_f(m.on_ns),
            fmt_f(m.on_ns / cal),
            fmt_f(overhead_pct),
            if i + 1 == micros.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n");
    // The admission A/B is gated on its *ratio* (packed vs wide measured
    // back-to-back in the same process), not on calibration-normalized
    // `rel`: an interleaved same-moment comparison is immune to the
    // machine-speed drift that makes absolute admission latencies too
    // noisy for a 10% cross-run gate.
    let _ = writeln!(
        out,
        "  \"admission\": {{\"rounds\": {}, \"packed_ns_per_op\": {}, \"wide_ns_per_op\": {}, \
         \"packed_rel\": {}, \"wide_rel\": {}, \"packed_over_wide\": {}}},",
        admission.rounds,
        fmt_f(admission.packed_ns),
        fmt_f(admission.wide_ns),
        fmt_f(admission.packed_ns / cal),
        fmt_f(admission.wide_ns / cal),
        fmt_f(admission.packed_ns / admission.wide_ns)
    );
    // Ratio-gated like the packed/wide A/B, normalized by the raw
    // word-op floor (`raw_*`: bare load + CAS on each word width, so the
    // gate tracks software overhead, not the host's cmpxchg16b premium);
    // `native` records whether the host ran real cmpxchg16b or the
    // spinlock fallback (the gate only applies to the native path).
    let _ = writeln!(
        out,
        "  \"admission_dwcas\": {{\"rounds\": {}, \"dwcas_ns_per_op\": {}, \
         \"packed_ns_per_op\": {}, \"dwcas_rel\": {}, \"packed_rel\": {}, \
         \"dwcas_over_packed\": {}, \"raw128_ns_per_op\": {}, \"raw64_ns_per_op\": {}, \
         \"raw_128_over_64\": {}, \"native\": {}}},",
        dwcas.rounds,
        fmt_f(dwcas.dwcas_ns),
        fmt_f(dwcas.packed_ns),
        fmt_f(dwcas.dwcas_ns / cal),
        fmt_f(dwcas.packed_ns / cal),
        fmt_f(dwcas.dwcas_ns / dwcas.packed_ns),
        fmt_f(dwcas.raw128_ns),
        fmt_f(dwcas.raw64_ns),
        fmt_f(dwcas.raw128_ns / dwcas.raw64_ns),
        dwcas.native
    );
    // The contended handoff A/B: claim-stack parking vs mutex/condvar
    // parking on the identical two-thread ping-pong. Ratio-gated.
    let _ = writeln!(
        out,
        "  \"handoff\": {{\"rounds\": {}, \"claim_ns_per_op\": {}, \"mutex_ns_per_op\": {}, \
         \"claim_rel\": {}, \"mutex_rel\": {}, \"claim_over_mutex\": {}}},",
        handoff.rounds,
        fmt_f(handoff.claim_ns),
        fmt_f(handoff.mutex_ns),
        fmt_f(handoff.claim_ns / cal),
        fmt_f(handoff.mutex_ns / cal),
        fmt_f(handoff.claim_ns / handoff.mutex_ns)
    );
    // Like the admission A/B, the interpreter A/B is gated on its ratio
    // (both engines measured back-to-back in the same process), so it is
    // immune to machine-speed drift across runs.
    let _ = writeln!(
        out,
        "  \"interp\": {{\"rounds\": {}, \"treewalk_ns_per_op\": {}, \"compiled_ns_per_op\": {}, \
         \"treewalk_rel\": {}, \"compiled_rel\": {}, \"compiled_over_treewalk\": {}, \
         \"speedup\": {}}},",
        interp_ab.rounds,
        fmt_f(interp_ab.treewalk_ns),
        fmt_f(interp_ab.compiled_ns),
        fmt_f(interp_ab.treewalk_ns / cal),
        fmt_f(interp_ab.compiled_ns / cal),
        fmt_f(interp_ab.compiled_ns / interp_ab.treewalk_ns),
        fmt_f(interp_ab.treewalk_ns / interp_ab.compiled_ns)
    );
    // The open-loop server goodput table. Completion ratio and the
    // settled ledger are gated absolutely; goodput/p99 are gated as wide
    // sanity bands against the checked-in baseline (see `check_server`),
    // not as tight perf gates — open-loop latency is too
    // machine-sensitive for a 10% cross-host comparison.
    let _ = writeln!(
        out,
        "  \"server\": {{\"seed\": {}, \"offered\": {}, \"completed\": {}, \"shed\": {}, \
         \"failed\": {}, \"completion_ratio\": {}, \"goodput_per_sec\": {}, \"p50_us\": {}, \
         \"p99_us\": {}, \"p999_us\": {}, \"retried_completions\": {}, \"retry_attempts\": {}, \
         \"escalations\": {}, \"degraded\": {}}},",
        SERVER_SEED,
        server.offered,
        server.completed,
        server.shed,
        server.failed,
        fmt_f(server.completion_ratio()),
        fmt_f(server.goodput_per_sec),
        server.p50_us,
        server.p99_us,
        server.p999_us,
        server.retried_completions,
        server.retry_attempts,
        server.escalations,
        server.degraded_observed
    );
    out.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        let tel = match &w.telemetry {
            None => "null".to_string(),
            Some(t) => format!(
                "{{\"acquires\": {}, \"admits\": {}, \"releases\": {}, \"overflow\": {}, \
                 \"lock_acquisitions\": {}, \"site_modes\": {}, \
                 \"contended_acquires\": {}, \"total_wait_ns\": {}, \"max_wait_ns\": {}}}",
                t.acquires,
                t.admits,
                t.releases,
                t.overflow,
                t.lock_acquisitions,
                t.sites,
                t.contended_acquires,
                t.total_wait_ns,
                t.max_wait_ns
            ),
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"threads\": {}, \"ops_per_sec\": {}, \
             \"contention\": {{\"acquisitions\": {}, \"contended\": {}}}, \"telemetry\": {}}}{}",
            w.name,
            w.threads,
            fmt_f(w.ops_per_sec),
            w.acquisitions,
            w.contended,
            tel,
            if i + 1 == workloads.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Pull `(name, rel)` for every telemetry-off micro entry out of a
/// baseline file written by this runner (line-oriented scan; each micro
/// entry is one line).
fn parse_baseline_micros(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\":") || !line.contains("\"telemetry\": \"off\"") {
            continue;
        }
        let name = match line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        {
            Some(n) => n.to_string(),
            None => continue,
        };
        let rel = line
            .split("\"rel\": ")
            .nth(1)
            .and_then(|s| s.trim_end_matches(&['}', ','][..]).parse::<f64>().ok());
        if let Some(rel) = rel {
            out.push((name, rel));
        }
    }
    out
}

/// Every telemetry-off micro this run produced, as `(name, rel)`. The
/// admission A/B is deliberately absent: it is gated by ratio (see
/// [`check_admission`]), not against checked-in absolute values.
fn measured_rels(cal: f64, micros: &[MicroResult]) -> Vec<(String, f64)> {
    micros
        .iter()
        .map(|m| (m.name.to_string(), m.off_ns / cal))
        .collect()
}

fn check_regressions(cfg: &Config, measured: &[(String, f64)]) -> bool {
    let mut ok = true;
    for path in &cfg.against {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_json: cannot read baseline {path}: {e}");
                ok = false;
                continue;
            }
        };
        let baseline = parse_baseline_micros(&text);
        if baseline.is_empty() {
            eprintln!("bench_json: baseline {path} has no telemetry-off micro entries");
            ok = false;
            continue;
        }
        for (name, base_rel) in &baseline {
            let Some((_, rel)) = measured.iter().find(|(n, _)| n == name) else {
                eprintln!("bench_json: baseline micro {name} no longer measured");
                ok = false;
                continue;
            };
            let limit = base_rel * (1.0 + cfg.tolerance);
            if *rel > limit {
                eprintln!(
                    "bench_json: REGRESSION {name}: rel {rel:.3} > baseline {base_rel:.3} \
                     (+{:.1}% allowed) [{path}]",
                    cfg.tolerance * 100.0
                );
                ok = false;
            } else {
                eprintln!("bench_json: {name}: rel {rel:.3} vs baseline {base_rel:.3} — ok");
            }
        }
    }
    ok
}

/// PR 4 acceptance: the packed-word admission path must be at or below
/// the counters-under-mutex path on the uncontended micro (min-of-N
/// interleaved A/B), within the regression tolerance for noise headroom.
fn check_admission(cfg: &Config, admission: &AdmissionAb) -> bool {
    let ratio = admission.packed_ns / admission.wide_ns;
    if ratio > 1.0 + cfg.tolerance {
        eprintln!(
            "bench_json: ADMISSION REGRESSION: packed {:.1} ns vs wide {:.1} ns \
             (ratio {ratio:.3} > {:.3})",
            admission.packed_ns,
            admission.wide_ns,
            1.0 + cfg.tolerance
        );
        false
    } else {
        eprintln!(
            "bench_json: admission A/B: packed {:.1} ns, wide {:.1} ns \
             (ratio {ratio:.3}, min of {} interleaved rounds) — ok",
            admission.packed_ns, admission.wide_ns, admission.rounds
        );
        true
    }
}

/// How much slower than the 64-bit packed admission the Dwcas admission
/// may be on the uncontended micro, *after* scaling by the measured raw
/// `cmpxchg16b`/`cmpxchg` hardware ratio. Anything beyond this bound
/// means the Dwcas path itself regressed — an extra locked op per
/// admission, a fatter admit computation, or a lost inline.
const DWCAS_OVER_PACKED_LIMIT: f64 = 1.15;

/// PR 8 acceptance (part 1): the Dwcas admission stays within
/// [`DWCAS_OVER_PACKED_LIMIT`] of the packed admission on the uncontended
/// micro, normalized by the host's own raw wide-CAS cost (see
/// [`DwcasAb`]) and with the regression tolerance as noise headroom.
/// Skipped (with a note) when the host ran the spinlock fallback instead
/// of native cmpxchg16b — the fallback's cost is not what the gate is
/// about.
fn check_dwcas(cfg: &Config, dwcas: &DwcasAb) -> bool {
    let ratio = dwcas.dwcas_ns / dwcas.packed_ns;
    if !dwcas.native {
        eprintln!(
            "bench_json: dwcas A/B: fallback path (no cmpxchg16b): dwcas {:.1} ns, \
             packed {:.1} ns (ratio {ratio:.3}) — gate skipped",
            dwcas.dwcas_ns, dwcas.packed_ns
        );
        return true;
    }
    // The hardware's own wide-CAS premium, floored at 1 so a noisy raw
    // measurement can only tighten the gate, never loosen it below the
    // nominal 1.15×.
    let hw = (dwcas.raw128_ns / dwcas.raw64_ns).max(1.0);
    let limit = DWCAS_OVER_PACKED_LIMIT * hw * (1.0 + cfg.tolerance);
    if ratio > limit {
        eprintln!(
            "bench_json: DWCAS REGRESSION: dwcas {:.1} ns vs packed {:.1} ns \
             (ratio {ratio:.3} > {limit:.3}; raw word-op floor {:.1} ns vs {:.1} ns = {hw:.3}x)",
            dwcas.dwcas_ns, dwcas.packed_ns, dwcas.raw128_ns, dwcas.raw64_ns
        );
        false
    } else {
        eprintln!(
            "bench_json: dwcas A/B: dwcas {:.1} ns, packed {:.1} ns (ratio {ratio:.3} \
             <= {limit:.3}; raw word-op floor {:.1} ns vs {:.1} ns = {hw:.3}x; \
             min of {} interleaved rounds) — ok",
            dwcas.dwcas_ns, dwcas.packed_ns, dwcas.raw128_ns, dwcas.raw64_ns, dwcas.rounds
        );
        true
    }
}

/// PR 8 acceptance (part 2): under the two-thread ping-pong the
/// claim-stack handoff must be no slower than the mutex/condvar parking
/// it replaced (ratio ≤ 1.0, with the regression tolerance as noise
/// headroom).
fn check_handoff(cfg: &Config, handoff: &HandoffAb) -> bool {
    let ratio = handoff.claim_ns / handoff.mutex_ns;
    if ratio > 1.0 + cfg.tolerance {
        eprintln!(
            "bench_json: HANDOFF REGRESSION: claim-stack {:.1} ns vs mutex-park {:.1} ns \
             (ratio {ratio:.3} > {:.3})",
            handoff.claim_ns,
            handoff.mutex_ns,
            1.0 + cfg.tolerance
        );
        false
    } else {
        eprintln!(
            "bench_json: handoff A/B: claim-stack {:.1} ns, mutex-park {:.1} ns \
             (ratio {ratio:.3}, min of {} interleaved rounds) — ok",
            handoff.claim_ns, handoff.mutex_ns, handoff.rounds
        );
        true
    }
}

/// Pull `(goodput_per_sec, p99_us)` out of a baseline's `"server"` line,
/// if it has one (PR 3–5 baselines don't; only PR 7+ files gate here).
fn parse_baseline_server(text: &str) -> Option<(f64, u64)> {
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("\"server\": {"))?;
    let field = |key: &str| -> Option<&str> {
        line.split(key)
            .nth(1)?
            .split([',', '}'])
            .next()
            .map(str::trim)
    };
    let goodput = field("\"goodput_per_sec\": ")?.parse::<f64>().ok()?;
    let p99 = field("\"p99_us\": ")?.parse::<u64>().ok()?;
    Some((goodput, p99))
}

/// PR 7 acceptance: the open-loop server must settle every request and
/// eventually complete ≥99% of the non-shed load; against baselines that
/// carry a `"server"` table, goodput and p99 stay within wide sanity
/// bands (≥ 0.5× goodput, ≤ 3× p99) — collapse detection, not a perf
/// gate.
fn check_server(cfg: &Config, server: &ServerReport) -> bool {
    let mut ok = true;
    if !server.settled() {
        eprintln!("bench_json: SERVER REGRESSION: outcome ledger out of balance: {server:?}");
        ok = false;
    }
    let ratio = server.completion_ratio();
    if ratio < 0.99 {
        eprintln!(
            "bench_json: SERVER REGRESSION: eventual completion {ratio:.4} < 0.99 \
             ({} completed / {} admitted, {} shed)",
            server.completed,
            server.offered - server.shed,
            server.shed
        );
        ok = false;
    } else {
        eprintln!(
            "bench_json: server: completion {ratio:.4}, goodput {:.0}/s, p99 {} µs, \
             {} retried, {} shed — ok",
            server.goodput_per_sec, server.p99_us, server.retried_completions, server.shed
        );
    }
    for path in &cfg.against {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // unreadable baselines already fail check_regressions
        };
        let Some((base_goodput, base_p99)) = parse_baseline_server(&text) else {
            continue;
        };
        if server.goodput_per_sec < base_goodput * 0.5 {
            eprintln!(
                "bench_json: SERVER REGRESSION: goodput {:.0}/s < half of baseline {:.0}/s \
                 [{path}]",
                server.goodput_per_sec, base_goodput
            );
            ok = false;
        }
        if server.p99_us > base_p99.saturating_mul(3) {
            eprintln!(
                "bench_json: SERVER REGRESSION: p99 {} µs > 3x baseline {} µs [{path}]",
                server.p99_us, base_p99
            );
            ok = false;
        }
    }
    ok
}

/// PR 5 acceptance, tightened by PR 10: the compiled engine must run the
/// engine-gap section at least 4× faster than the tree-walker (min-of-N
/// interleaved A/B), with the regression tolerance as noise headroom.
fn check_interp(cfg: &Config, interp_ab: &InterpAb) -> bool {
    let speedup = interp_ab.treewalk_ns / interp_ab.compiled_ns;
    let floor = 4.0 * (1.0 - cfg.tolerance);
    if speedup < floor {
        eprintln!(
            "bench_json: INTERP REGRESSION: compiled {:.1} ns vs tree-walk {:.1} ns \
             (speedup {speedup:.2}x < {floor:.2}x)",
            interp_ab.compiled_ns, interp_ab.treewalk_ns
        );
        false
    } else {
        eprintln!(
            "bench_json: interp A/B: tree-walk {:.1} ns, compiled {:.1} ns \
             (speedup {speedup:.2}x, min of {} interleaved rounds) — ok",
            interp_ab.treewalk_ns, interp_ab.compiled_ns, interp_ab.rounds
        );
        true
    }
}

/// The counter tier must account for every acquisition: on each
/// semantic workload no key was lost to overflow, and the admissions the
/// threads counted in place equal the acquisitions the lock counted
/// itself over the same span (each released again). Absolute, so no
/// baseline or tolerance is involved.
fn check_telemetry(workloads: &[WorkloadResult]) -> bool {
    let mut ok = true;
    for w in workloads {
        let Some(t) = &w.telemetry else { continue };
        let exact = t.overflow == 0 && t.admits == t.lock_acquisitions && t.releases == t.admits;
        eprintln!(
            "bench_json: telemetry {} x{}: {} acquires, {} admits, {} releases, overflow {} \
             vs {} lock acquisitions — {}",
            w.name,
            w.threads,
            t.acquires,
            t.admits,
            t.releases,
            t.overflow,
            t.lock_acquisitions,
            if exact { "ok" } else { "MISCOUNT" }
        );
        ok &= exact;
    }
    ok
}

fn main() {
    let cfg = parse_args();
    telemetry::set_enabled(false);
    let cal = calibrate();
    eprintln!("bench_json: calibration {cal:.3} ns/op");
    let micros = run_micros(cfg.ops);
    for m in &micros {
        eprintln!(
            "bench_json: micro {}: off {:.1} ns, on {:.1} ns ({:+.1}%)",
            m.name,
            m.off_ns,
            m.on_ns,
            (m.on_ns - m.off_ns) / m.off_ns * 100.0
        );
    }
    let admission = run_admission_ab(cfg.ops);
    let dwcas = run_dwcas_ab(cfg.ops);
    let handoff = run_handoff_ab(cfg.ops);
    let interp_ab = run_interp_ab(cfg.ops);
    let server = run_server_bench(cfg.ops);
    let tel = &server.telemetry;
    eprintln!(
        "bench_json: server telemetry: {} retries, {} escalations, {} sheds, {} exhausted",
        tel.retries, tel.escalations, tel.sheds, tel.exhausted
    );
    let workloads = run_workloads(&cfg);
    let json = render_json(
        cal, &micros, &admission, &dwcas, &handoff, &interp_ab, &server, &workloads, &cfg,
    );
    match &cfg.out {
        Some(path) => {
            std::fs::write(path, &json).expect("write output file");
            eprintln!("bench_json: wrote {path}");
        }
        None => print!("{json}"),
    }
    let measured = measured_rels(cal, &micros);
    let ok = check_admission(&cfg, &admission)
        & check_dwcas(&cfg, &dwcas)
        & check_handoff(&cfg, &handoff)
        & check_interp(&cfg, &interp_ab)
        & check_server(&cfg, &server)
        & check_telemetry(&workloads)
        & check_regressions(&cfg, &measured);
    if !ok {
        std::process::exit(1);
    }
}
