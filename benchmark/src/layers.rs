//! The per-layer measurements beside a workload's own traced run: the
//! layer ladder, the paper's baselines on the `cia_*` inputs, the
//! telemetry layer's cost, and the stages of the set-up path. Each is
//! measured once, by the traced run of the workload that exercises the
//! layer. Every layer is timed from outside, through its public calls,
//! with the same slice estimator the end-to-end numbers use.

use crate::cia::{self, Twin};
use crate::estimator::median;
use crate::inputs::{self, Kind, Request, CIA_KEY_RANGE, SERVER_UNIFORM};
use crate::report::Outcome;
use crate::server::{self, Server};
use crate::slices::{self, Budget};
use interp::{Engine, Env, Interp, Strategy};
use semlock::phi::Phi;
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use semlock::{AcquireSpec, ModeId, Txn};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use synth::Synthesizer;
use workloads::synthesis::registry;
use workloads::SyncKind;

/// Slices of a ladder rung aim at about 5 ms of work.
const RUNG_SLICE_NS: f64 = 5e6;

/// Quiet-decile ns per call of `op` over the cycled key stream, single
/// thread. `expect_ns` sizes the slice; it only has to be the right
/// order of magnitude.
fn rung(keys: &[u32], seconds: f64, expect_ns: f64, op: impl Fn(Value) + Sync) -> f64 {
    let n = (RUNG_SLICE_NS / expect_ns) as usize;
    let slices = slices::run(1, Budget::at_least(40, seconds), |_, index, _| {
        cia::for_keys(keys, index * n, n, |_, k| op(k));
    });
    slices::summarize(&slices, n).ns_per_op
}

/// The first `n` requests of `kind` in a vector.
fn of_kind(reqs: &[Request], kind: Kind, n: usize) -> Vec<Request> {
    let v: Vec<Request> = reqs
        .iter()
        .filter(|r| r.kind == kind)
        .take(n)
        .copied()
        .collect();
    assert!(!v.is_empty(), "no {kind:?} requests generated");
    v
}

/// Report a ladder: each rung with its delta from the rung below.
fn push_rungs(out: &mut Outcome, rungs: Vec<(&str, f64)>) {
    let mut below = 0.0;
    for (name, ns) in rungs {
        out.layer(name, ns);
        out.notes.push(format!(
            "ladder {name:<36} {ns:>9.2} ns  ({:+.2} from the rung below)",
            ns - below
        ));
        below = ns;
    }
}

/// The `semlock` / `adts` rungs of the layer ladder: each layer's public
/// call alone, one thread, the `cia_*` keys. Measured by `cia_1t`'s
/// traced run, the workload these layers are most of.
pub fn semlock_ladder(out: &mut Outcome, keys: &[u32], seconds: f64) {
    let per_rung = seconds / 6.0;
    let twin = Twin::build();
    cia::prepopulate(|k| twin.op(k));
    let lock = twin.lock();
    let modes: Vec<ModeId> = (0..CIA_KEY_RANGE).map(|k| twin.select(Value(k))).collect();
    let mode_of = |k: Value| modes[k.0 as usize];
    let word = AtomicU64::new(0);

    let mut rungs: Vec<(&str, f64)> = Vec::new();
    rungs.push((
        "ladder.raw_cas_ns",
        rung(keys, per_rung, 12.0, |k| {
            // What any counting lock must do at least: one CAS to enter,
            // one atomic subtract to leave.
            black_box(k);
            let seen = word.load(Ordering::Relaxed);
            let _ = black_box(word.compare_exchange(
                seen,
                seen + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ));
            word.fetch_sub(1, Ordering::Release);
        }),
    ));
    rungs.push((
        "semlock.select_ns",
        rung(keys, per_rung, 10.0, |k| {
            black_box(twin.select(k));
        }),
    ));
    rungs.push((
        "semlock.lock_unlock_ns",
        rung(keys, per_rung, 25.0, |k| {
            let m = mode_of(k);
            lock.lock(m);
            lock.unlock(m);
        }),
    ));
    rungs.push((
        "semlock.txn_acquire_unlock_all_ns",
        rung(keys, per_rung, 45.0, |k| {
            let mut txn = Txn::new();
            txn.acquire(lock, &AcquireSpec::new(mode_of(k)))
                .expect("ladder: acquisition failed");
            txn.unlock_all();
        }),
    ));
    rungs.push((
        "semlock.txn_deadline_acquire_ns",
        rung(keys, per_rung, 80.0, |k| {
            let mut txn = Txn::new();
            txn.acquire(
                lock,
                &AcquireSpec::new(mode_of(k)).timeout(server::LOCK_TIMEOUT),
            )
            .expect("ladder: bounded acquisition failed");
            txn.unlock_all();
        }),
    ));
    rungs.push((
        "adts.cia_body_ns",
        rung(keys, per_rung, 25.0, |k| twin.body(k)),
    ));
    push_rungs(out, rungs);
}

/// The `interp` rungs: the `server_uniform` sections on its own shape
/// and requests, one thread. Measured by `server_uniform`'s traced run.
pub fn interp_ladder(out: &mut Outcome, seed: u64, seconds: f64) {
    let per_rung = seconds / 5.0;
    let mut rungs: Vec<(&str, f64)> = Vec::new();
    let srv = Server::build(&SERVER_UNIFORM, Engine::Compiled);
    srv.prepopulate();
    let reqs = inputs::requests(seed, 0, &SERVER_UNIFORM, 1 << 16);
    let policy = RetryPolicy::new(seed);
    let shard = |s: u16| srv.shards[usize::from(s)];
    let compiled = |kind: Kind, expect_ns: f64| {
        let rs = of_kind(&reqs, kind, 1 << 14);
        // `rung` hands out stream values; here the stream is a cursor
        // into `rs`.
        let cursor: Vec<u32> = (0..rs.len() as u32).collect();
        rung(&cursor, per_rung, expect_ns, |i| {
            let r = &rs[i.0 as usize];
            let k1 = Value(u64::from(r.key1));
            let frame = match kind {
                Kind::Transfer => srv.interp.try_run_compiled(
                    "transfer",
                    &[
                        ("src", shard(r.shard1)),
                        ("dst", shard(r.shard2)),
                        ("ka", k1),
                        ("kb", Value(u64::from(r.key2))),
                    ],
                ),
                Kind::ScanMutate => srv
                    .interp
                    .try_run_compiled("scan_mutate", &[("m", shard(r.shard1)), ("k", k1)]),
                Kind::Balance => srv
                    .interp
                    .try_run_compiled("balance", &[("acct", shard(r.shard1)), ("k", k1)]),
            };
            black_box(frame.expect("ladder: compiled section aborted"));
        })
    };
    let balance_ns = compiled(Kind::Balance, 500.0);
    rungs.push(("interp.balance_ns", balance_ns));
    rungs.push(("interp.transfer_ns", compiled(Kind::Transfer, 1500.0)));
    rungs.push(("interp.scan_mutate_ns", compiled(Kind::ScanMutate, 1000.0)));

    let balances = of_kind(&reqs, Kind::Balance, 1 << 14);
    let cursor: Vec<u32> = (0..balances.len() as u32).collect();
    let with_retry = rung(&cursor, per_rung, 700.0, |i| {
        let r = &balances[i.0 as usize];
        black_box(srv.serve(r, &policy).expect("ladder: request failed"));
    });
    rungs.push(("interp.retry_wrapper_ns", with_retry - balance_ns));
    let tree = Interp::new(srv.env.clone(), Strategy::Semantic)
        .with_lock_timeout(server::LOCK_TIMEOUT)
        .with_engine(Engine::TreeWalk);
    rungs.push((
        "interp.treewalk_balance_ns",
        rung(&cursor, per_rung, 2500.0, |i| {
            let r = &balances[i.0 as usize];
            let args = [("acct", shard(r.shard1)), ("k", Value(u64::from(r.key1)))];
            black_box(
                tree.try_run("balance", &args)
                    .expect("ladder: tree-walk aborted"),
            );
        }),
    ));

    push_rungs(out, rungs);
}

/// The paper's ordering on the `cia_*` inputs: Ours, Manual (64-way
/// striping), 2PL and Global in alternating blocks of slices on
/// `threads` threads.
pub fn baselines(out: &mut Outcome, keys: &[u32], threads: usize, seconds: f64) {
    const KINDS: [SyncKind; 4] = [
        SyncKind::Semantic,
        SyncKind::Manual,
        SyncKind::TwoPl,
        SyncKind::Global,
    ];
    const BLOCK: usize = 4;
    const OPS: usize = 80_000;
    let benches: Vec<_> = KINDS
        .iter()
        .map(|&kind| {
            let b = cia::build(kind);
            cia::prepopulate(|k| b.invoke(k));
            b
        })
        .collect();
    let slices = slices::run(
        threads,
        Budget::at_least(2 * BLOCK * KINDS.len(), seconds),
        |w, index, _| {
            let bench = &benches[slices::variant_of(index, BLOCK, KINDS.len())];
            let (start, n) = cia::share(OPS, threads, w, index);
            cia::for_keys(keys, start, n, |_, k| bench.invoke(k));
        },
    );
    let ns: Vec<f64> = (0..KINDS.len())
        .map(|v| {
            let own = slices::slices_of_variant(&slices, BLOCK, KINDS.len(), v);
            slices::summarize(&own, OPS).ns_per_op
        })
        .collect();
    for b in &benches {
        if let Err(e) = b.validate() {
            out.fail_check(format!("baseline map corrupt: {e}"));
        }
    }
    out.layer("baselines.manual_ns", ns[1]);
    out.layer("baselines.twopl_ns", ns[2]);
    out.layer("baselines.global_ns", ns[3]);
    out.layer("baselines.speedup_vs_2pl", ns[2] / ns[0]);
    out.layer("baselines.cost_vs_manual", ns[0] / ns[1]);
    out.notes.push(format!(
        "baselines on {threads} thread(s): ours {:.1} ns, manual {:.1} ns, 2pl {:.1} ns, global {:.1} ns",
        ns[0], ns[1], ns[2], ns[3]
    ));
}

/// What leaving telemetry on costs `cia_1t`: blocks with the recorder
/// off and on, interleaved in one run on one lock.
pub fn telemetry(out: &mut Outcome, keys: &[u32], seconds: f64) {
    const BLOCK: usize = 4;
    const OPS: usize = 80_000;
    let bench = cia::build(SyncKind::Semantic);
    cia::prepopulate(|k| bench.invoke(k));
    semlock::telemetry::reset();
    let slices = slices::run(1, Budget::at_least(4 * BLOCK, seconds), |w, index, _| {
        semlock::telemetry::set_enabled(slices::variant_of(index, BLOCK, 2) == 1);
        let (start, n) = cia::share(OPS, 1, w, index);
        cia::for_keys(keys, start, n, |_, k| bench.invoke(k));
    });
    semlock::telemetry::set_enabled(false);
    let (events, dropped) = semlock::telemetry::snapshot();
    semlock::telemetry::reset();
    let ns = |v| {
        let own = slices::slices_of_variant(&slices, BLOCK, 2, v);
        slices::summarize(&own, OPS).ns_per_op
    };
    let recorded = events.len() as u64 + dropped;
    out.layer("telemetry.events", recorded as f64);
    out.layer("telemetry.dropped", dropped as f64);
    out.layer(
        "telemetry.drop_ratio",
        dropped as f64 / recorded.max(1) as f64,
    );
    out.layer("telemetry.overhead_ratio", ns(1) / ns(0));
}

/// The stages of the `server_uniform` set-up path, each the median of
/// `builds` cold runs, and the exact counts the compiler reports.
pub fn setup_stages(out: &mut Outcome, builds: usize) {
    let shape = SERVER_UNIFORM;
    let mut ms: [Vec<f64>; 5] = Default::default();
    let mut counts = [0u64; 5];
    for _ in 0..builds {
        let mut lap = Instant::now();
        let mut stage = |i: usize| {
            let now = Instant::now();
            ms[i].push((now - lap).as_secs_f64() * 1e3);
            lap = Instant::now();
        };
        let program = Arc::new(
            Synthesizer::new(registry())
                .phi(Phi::fib(64))
                .synthesize(&server::sections()),
        );
        stage(0);
        let tapes = synth::lower::lower_program(&program);
        stage(1);
        let optimized: Vec<_> = tapes.iter().map(synth::tape_opt::optimize).collect();
        stage(2);
        let env = Env::new(program.clone());
        let shards: Vec<Value> = (0..shape.shards).map(|_| env.new_instance("Map")).collect();
        stage(3);
        let compiled = interp::compile::compile_program(&env);
        stage(4);
        black_box((&shards, &compiled));

        let mut classes: Vec<&str> = program.tables.classes().collect();
        classes.sort_unstable();
        counts = [
            classes
                .iter()
                .map(|c| program.tables.table(c).mode_count() as u64)
                .sum(),
            optimized.iter().map(|(t, _)| t.ops.len() as u64).sum(),
            optimized.iter().map(|(_, s)| u64::from(s.fused)).sum(),
            optimized.iter().map(|(_, s)| u64::from(s.batches)).sum(),
            optimized.iter().map(|(_, s)| u64::from(s.hoisted)).sum(),
        ];
    }
    for (name, v) in [
        "synth.synthesize_ms",
        "synth.lower_ms",
        "synth.tape_opt_ms",
        "interp.env_instances_ms",
        "interp.compile_ms",
    ]
    .iter()
    .zip(&ms)
    {
        out.layer(name, median(v));
    }
    for (name, c) in [
        "synth.modes",
        "synth.tape_ops",
        "synth.fused",
        "synth.batches",
        "synth.hoisted",
    ]
    .iter()
    .zip(counts)
    {
        out.layer(name, c as f64);
    }
}
