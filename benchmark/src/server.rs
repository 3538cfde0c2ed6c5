//! The `server_*` workloads: a closed loop of workers, each calling
//! `Interp::run_with_retry` on its own pre-generated request vector.
//!
//! Closed loop is deliberate: atomic sections are called by application
//! threads that wait for them. `workloads::run_server`'s sleep-paced
//! open loop offers more than the system completes, so its latency is
//! backlog, not service time; it is not used here.

use crate::inputs::{Kind, Request, ServerShape};
use crate::slices::{self, Budget, Slice};
use crate::trace::{Span, SpanRing};
use interp::{Engine, Env, Interp, Strategy};
use semlock::phi::Phi;
use semlock::retry::RetryPolicy;
use semlock::value::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use synth::ir::AtomicSection;
use synth::Synthesizer;
use workloads::server::{balance_section, scan_mutate_section, transfer_section};
use workloads::synthesis::registry;

/// Requests each worker serves per slice: 10 000 per slice with two
/// workers, so the slice's own p99 has 100 samples beyond it.
pub const REQUESTS_PER_WORKER_SLICE: usize = 5_000;

/// Deadline of each attempt's semantic acquisitions.
pub const LOCK_TIMEOUT: Duration = Duration::from_millis(100);

/// Request spans a traced worker retains.
const SPAN_RING: usize = 50_000;

/// Slices per block of the traced run's untraced/traced alternation.
pub const TRACE_BLOCK: usize = 5;

/// The three sections every server workload serves.
pub fn sections() -> [AtomicSection; 3] {
    [transfer_section(), balance_section(), scan_mutate_section()]
}

/// A built server: the synthesized program, its environment, one `Map`
/// instance per shard, and the interpreter that runs the sections.
pub struct Server {
    pub env: Arc<Env>,
    pub interp: Interp,
    pub shards: Vec<Value>,
    shape: ServerShape,
}

impl Server {
    /// The cold build `setup_s` times: synthesize → `Env::new` → one
    /// instance per shard → `Interp` (compiles every section when the
    /// engine is `Compiled`).
    pub fn build(shape: &ServerShape, engine: Engine) -> Server {
        let program = Arc::new(
            Synthesizer::new(registry())
                .phi(Phi::fib(64))
                .synthesize(&sections()),
        );
        let env = Arc::new(Env::new(program));
        let shards = (0..shape.shards).map(|_| env.new_instance("Map")).collect();
        let interp = Interp::new(env.clone(), Strategy::Semantic)
            .with_lock_timeout(LOCK_TIMEOUT)
            .with_engine(engine);
        Server {
            env,
            interp,
            shards,
            shape: *shape,
        }
    }

    /// Per-shard keys of shard `s`: global key `k` lives in shard
    /// `k % shards` as `k / shards`.
    fn keys_of_shard(&self, s: usize) -> u64 {
        let shards = self.shape.shards as u64;
        (self.shape.keys - s as u64).div_ceil(shards)
    }

    /// Bind every account to 0 through the ADT directly, so every timed
    /// request takes the key-present path and the maps do not grow while
    /// the run is measured.
    pub fn prepopulate(&self) {
        for (s, &h) in self.shards.iter().enumerate() {
            let adt = self.env.resolve(h);
            let put = adt.obj.schema().method("put");
            for l in 0..self.keys_of_shard(s) {
                adt.obj.invoke(put, &[Value(l), Value(0)]);
            }
        }
    }

    /// Run one request to completion under the retry policy.
    pub fn serve(
        &self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<interp::RetryRun, semlock::LockError> {
        let s1 = self.shards[usize::from(req.shard1)];
        let k1 = Value(u64::from(req.key1));
        match req.kind {
            Kind::Transfer => self.interp.run_with_retry(
                "transfer",
                &[
                    ("src", s1),
                    ("dst", self.shards[usize::from(req.shard2)]),
                    ("ka", k1),
                    ("kb", Value(u64::from(req.key2))),
                ],
                policy,
            ),
            Kind::ScanMutate => {
                self.interp
                    .run_with_retry("scan_mutate", &[("m", s1), ("k", k1)], policy)
            }
            Kind::Balance => {
                self.interp
                    .run_with_retry("balance", &[("acct", s1), ("k", k1)], policy)
            }
        }
    }

    /// Every account's value, shard by shard (NULL for an absent key).
    pub fn accounts(&self) -> Vec<Vec<Value>> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, &h)| {
                let adt = self.env.resolve(h);
                let get = adt.obj.schema().method("get");
                (0..self.keys_of_shard(s))
                    .map(|l| adt.obj.invoke(get, &[Value(l)]))
                    .collect()
            })
            .collect()
    }

    /// `(acquisitions, contended)` summed over every shard's lock.
    pub fn contention(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(a, c), &h| {
            let (da, dc) = self.env.resolve(h).sem().contention();
            (a + da, c + dc)
        })
    }

    /// Name of the admission backend the shards' locks use.
    pub fn backend(&self) -> &'static str {
        self.env.resolve(self.shards[0]).sem().backend().name()
    }
}

/// What one worker counted over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub offered: u64,
    pub completed: u64,
    pub failed: u64,
    /// Completions that needed more than one attempt.
    pub retried: u64,
    /// Attempts over all completions (1 each when nothing retries).
    pub attempts: u64,
    pub escalations: u64,
    /// Account increments the completed requests made (2 per transfer,
    /// 1 per scan+mutate).
    pub increments: u64,
}

impl Ledger {
    pub fn add(&mut self, other: &Ledger) {
        self.offered += other.offered;
        self.completed += other.completed;
        self.failed += other.failed;
        self.retried += other.retried;
        self.attempts += other.attempts;
        self.escalations += other.escalations;
        self.increments += other.increments;
    }
}

struct WorkerState {
    ledger: Ledger,
    ring: SpanRing,
}

/// What a run of a server workload produced.
pub struct Run {
    pub slices: Vec<Slice>,
    pub ledgers: Vec<Ledger>,
    /// Retained request spans (empty unless the run was traced).
    pub spans: Vec<Span>,
}

/// Closed-loop run: worker `w` serves `vectors[w]` in order, cycling.
/// With `traced`, blocks of [`TRACE_BLOCK`] slices alternate between
/// plain serving (variant 0) and serving with one `request` span per
/// request (variant 1).
pub fn run(
    server: &Server,
    vectors: &[Vec<Request>],
    policy: &RetryPolicy,
    budget: Budget,
    traced: bool,
) -> Run {
    let workers = vectors.len();
    let epoch = Instant::now();
    let states: Vec<Mutex<WorkerState>> = (0..workers)
        .map(|_| {
            Mutex::new(WorkerState {
                ledger: Ledger::default(),
                ring: SpanRing::new(if traced { SPAN_RING } else { 1 }),
            })
        })
        .collect();
    let slices = slices::run(workers, budget, |w, index, lat| {
        let mut st = states[w].lock().expect("worker state poisoned");
        let st = &mut *st;
        let reqs = &vectors[w];
        let spans_on = traced && slices::variant_of(index, TRACE_BLOCK, 2) == 1;
        let mut pos = (index * REQUESTS_PER_WORKER_SLICE) % reqs.len();
        // Chained clock reads: a request's latency runs from the end of
        // the previous one to its own end, so nothing between requests
        // goes unmeasured.
        let mut prev = Instant::now();
        for _ in 0..REQUESTS_PER_WORKER_SLICE {
            let req = &reqs[pos];
            pos += 1;
            if pos == reqs.len() {
                pos = 0;
            }
            let result = server.serve(req, policy);
            let now = Instant::now();
            lat.push((now - prev).as_nanos().min(u128::from(u32::MAX)) as u32);
            st.ledger.offered += 1;
            let attempts = match &result {
                Ok(run) => {
                    st.ledger.completed += 1;
                    st.ledger.attempts += u64::from(run.attempts);
                    st.ledger.retried += u64::from(run.attempts > 1);
                    st.ledger.escalations += u64::from(run.escalated);
                    st.ledger.increments += match req.kind {
                        Kind::Transfer => 2,
                        Kind::ScanMutate => 1,
                        Kind::Balance => 0,
                    };
                    run.attempts
                }
                Err(_) => {
                    st.ledger.failed += 1;
                    0
                }
            };
            if spans_on {
                let id = ((w as u64) << 48) | (st.ring.recorded + 1);
                st.ring.push(Span {
                    id,
                    parent: 0,
                    name: req.kind.section(),
                    worker: w as u16,
                    start_ns: (prev - epoch).as_nanos() as u64,
                    end_ns: (now - epoch).as_nanos() as u64,
                    attempts,
                });
            }
            prev = now;
        }
    });
    let mut ledgers = Vec::new();
    let mut spans = Vec::new();
    for st in states {
        let st = st.into_inner().expect("worker state poisoned");
        ledgers.push(st.ledger);
        if traced {
            spans.extend(st.ring.into_spans());
        }
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Run {
        slices,
        ledgers,
        spans,
    }
}

/// Output checks of a finished run, at quiescence. `baseline` is the sum
/// of all account values before the run (0 after [`Server::prepopulate`]).
pub fn check(server: &Server, run: &Run, baseline: u64) -> Result<(), String> {
    for (w, l) in run.ledgers.iter().enumerate() {
        if l.completed + l.failed != l.offered {
            return Err(format!(
                "worker {w}: {} completed + {} failed != {} offered",
                l.completed, l.failed, l.offered
            ));
        }
    }
    for (i, &h) in server.shards.iter().enumerate() {
        let adt = server.env.resolve(h);
        if adt.sem().total_holds() != 0 {
            return Err(format!(
                "shard {i} still holds {} modes at quiescence",
                adt.sem().total_holds()
            ));
        }
        if adt.sem().is_poisoned() {
            return Err(format!("shard {i} is poisoned at quiescence"));
        }
    }
    // Atomicity, end to end: every completed transfer incremented two
    // accounts and every scan+mutate one, so a lost update shows as a
    // short sum.
    let sum: u64 = server
        .accounts()
        .iter()
        .flatten()
        .filter(|v| !v.is_null())
        .map(|v| v.0)
        .sum();
    let expected = baseline + run.ledgers.iter().map(|l| l.increments).sum::<u64>();
    if sum != expected {
        return Err(format!(
            "account values sum to {sum}, completed requests account for {expected}"
        ));
    }
    Ok(())
}

/// A plain-Rust model of the three sections on empty maps: the
/// reference neither interpreter engine shares code with.
fn model_replay(shape: &ServerShape, reqs: &[Request]) -> Vec<HashMap<u32, u64>> {
    let mut maps: Vec<HashMap<u32, u64>> = vec![HashMap::new(); shape.shards];
    let bump = |m: &mut HashMap<u32, u64>, k: u32, absent: u64| {
        m.entry(k).and_modify(|v| *v += 1).or_insert(absent);
    };
    for r in reqs {
        match r.kind {
            Kind::Transfer => {
                bump(&mut maps[usize::from(r.shard1)], r.key1, 1);
                bump(&mut maps[usize::from(r.shard2)], r.key2, 1);
            }
            Kind::ScanMutate => {
                let m = &mut maps[usize::from(r.shard1)];
                let n = m.len() as u64;
                bump(m, r.key1, n + 1);
            }
            Kind::Balance => {}
        }
    }
    maps
}

/// Replay `reqs` single-threaded on fresh, empty environments under both
/// engines and compare every account with the plain-Rust model.
pub fn check_replay(shape: &ServerShape, reqs: &[Request], seed: u64) -> Result<(), String> {
    let model = model_replay(shape, reqs);
    let policy = RetryPolicy::new(seed);
    for engine in [Engine::TreeWalk, Engine::Compiled] {
        let server = Server::build(shape, engine);
        for (i, r) in reqs.iter().enumerate() {
            server
                .serve(r, &policy)
                .map_err(|e| format!("replay under {engine:?}: request {i} failed: {e}"))?;
        }
        for (s, accounts) in server.accounts().iter().enumerate() {
            for (l, v) in accounts.iter().enumerate() {
                let want = model[s].get(&(l as u32)).map_or(Value::NULL, |&x| Value(x));
                if *v != want {
                    return Err(format!(
                        "replay under {engine:?}: shard {s} key {l} is {v}, the model says {want}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{requests, SERVER_HOT};

    /// A small shape so the tests build in milliseconds.
    const SMALL: ServerShape = ServerShape {
        shards: 4,
        keys: 256,
        ..SERVER_HOT
    };

    #[test]
    fn closed_loop_run_settles_and_passes_its_checks() {
        let vectors: Vec<_> = (0..2).map(|w| requests(9, w, &SMALL, 4096)).collect();
        let server = Server::build(&SMALL, Engine::Compiled);
        server.prepopulate();
        let run = run(
            &server,
            &vectors,
            &RetryPolicy::new(9),
            Budget::exactly(2),
            true,
        );
        assert_eq!(run.slices.len(), 2);
        assert_eq!(run.slices[0].samples, 2 * REQUESTS_PER_WORKER_SLICE);
        let per_worker = ((slices::WARMUP_SLICES + 2) * REQUESTS_PER_WORKER_SLICE) as u64;
        assert!(run.ledgers.iter().all(|l| l.offered == per_worker));
        assert!(!run.spans.is_empty());
        check(&server, &run, 0).unwrap();

        // A lost update (one account short) is caught by the sum check.
        let adt = server.env.resolve(server.shards[0]);
        let put = adt.obj.schema().method("put");
        let get = adt.obj.schema().method("get");
        let v = adt.obj.invoke(get, &[Value(0)]);
        adt.obj.invoke(put, &[Value(0), Value(v.0 + 1)]);
        assert!(check(&server, &run, 0).is_err());
    }

    #[test]
    fn replay_agrees_with_the_model_under_both_engines() {
        let reqs = requests(4, 0, &SMALL, 3_000);
        check_replay(&SMALL, &reqs, 4).unwrap();
    }

    #[test]
    fn shard_key_counts_cover_the_keyspace_exactly() {
        let odd = ServerShape {
            shards: 3,
            keys: 10,
            ..SERVER_HOT
        };
        let server = Server::build(&odd, Engine::Compiled);
        let total: u64 = (0..3).map(|s| server.keys_of_shard(s)).sum();
        assert_eq!(total, 10);
        assert_eq!(server.keys_of_shard(0), 4);
    }
}
