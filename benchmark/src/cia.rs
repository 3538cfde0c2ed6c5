//! The `cia_*` workloads: the paper's ComputeIfAbsent (Fig. 21) through
//! `workloads::ComputeIfAbsent::invoke`, and the benchmark-side twin of
//! the same section that the traced run puts spans around.

use crate::inputs::{CIA_KEY_RANGE, CIA_STREAM_LEN};
use crate::slices::{self, Budget, Slice};
use crate::trace::{Span, SpanRing};
use adts::MapAdt;
use semlock::mode::{LockSiteId, ModeTable};
use semlock::phi::Phi;
use semlock::value::Value;
use semlock::{AcquireSpec, ModeId, SemLock, Txn};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use synth::Synthesizer;
use workloads::synthesis::{cia_section, registry, runtime_site, stable_site};
use workloads::{ComputeIfAbsent, SyncKind};

/// Every this-many-th slice is a latency slice; the others are
/// throughput slices, whose timed loop holds no clock read. An operation
/// is 85–250 ns, below what a clock read can time without distorting the
/// loop it sits in, so the two are measured apart.
pub const LATENCY_SLICE_EVERY: usize = 4;

/// In a latency slice every this-many-th operation is timed on its own
/// (one clock read before, one after), and the cost of the clock read is
/// taken off the sample (see [`drive`]).
pub const LATENCY_EVERY: usize = 32;

/// Every this-many-th operation of the traced twin records its spans.
pub const SPAN_EVERY: usize = 64;

/// Spans a traced worker retains (5 per traced operation).
const SPAN_RING: usize = 50_000;

/// The state a `cia_*` run is built on: the cold build `setup_s` times.
pub fn build(kind: SyncKind) -> ComputeIfAbsent {
    ComputeIfAbsent::new(kind, CIA_KEY_RANGE)
}

/// Call `f(j, key)` for `j` in `0..n` over the cycled key stream,
/// starting at `start`.
pub fn for_keys(keys: &[u32], start: usize, n: usize, mut f: impl FnMut(usize, Value)) {
    let mut pos = start % keys.len();
    for j in 0..n {
        f(j, Value(u64::from(keys[pos])));
        pos += 1;
        if pos == keys.len() {
            pos = 0;
        }
    }
}

/// Whether slice `index` samples latencies instead of counting towards
/// throughput.
pub fn is_latency_slice(index: usize) -> bool {
    index % LATENCY_SLICE_EVERY == LATENCY_SLICE_EVERY - 1
}

/// One worker's share of slice `index`: `n` operations over the cycled
/// key stream from `start`. In a latency slice every
/// [`LATENCY_EVERY`]-th one is timed, less the empty interval read right
/// after it: both span exactly one clock read, in the same state of the
/// machine.
pub fn drive(
    keys: &[u32],
    (start, n): (usize, usize),
    index: usize,
    lat: &mut Vec<u32>,
    op: impl Fn(Value),
) {
    if !is_latency_slice(index) {
        return for_keys(keys, start, n, |_, k| op(k));
    }
    for_keys(keys, start, n, |j, k| {
        if j % LATENCY_EVERY == 0 {
            let t0 = Instant::now();
            op(k);
            let t1 = Instant::now();
            let timed = (t1 - t0).saturating_sub(t1.elapsed());
            lat.push(timed.as_nanos().min(u128::from(u32::MAX)) as u32);
        } else {
            op(k);
        }
    });
}

/// Where worker `worker` of `workers` starts in the key stream for slice
/// `index`, and how many operations it does: the slice's segment split
/// evenly, the same for every index.
pub fn share(ops_per_slice: usize, workers: usize, worker: usize, index: usize) -> (usize, usize) {
    let n = ops_per_slice / workers;
    ((index * ops_per_slice + worker * n) % CIA_STREAM_LEN, n)
}

/// Put every key of the range in the map, so each timed operation takes
/// the same path (key present). Returns the operations issued.
pub fn prepopulate(op: impl Fn(Value)) -> u64 {
    (0..CIA_KEY_RANGE).for_each(|k| op(Value(k)));
    CIA_KEY_RANGE
}

/// The untraced run: `threads` workers calling `invoke` on one shared
/// `SemLock`. Returns the slices (throughput and latency slices, see
/// [`split`]) and the operations issued in total (warm-up included).
pub fn run(
    bench: &ComputeIfAbsent,
    keys: &[u32],
    threads: usize,
    ops_per_slice: usize,
    budget: Budget,
) -> (Vec<Slice>, u64) {
    let issued = AtomicU64::new(0);
    let slices = slices::run(threads, budget, |w, index, lat| {
        let share = share(ops_per_slice, threads, w, index);
        drive(keys, share, index, lat, |k| bench.invoke(k));
        issued.fetch_add(share.1 as u64, Ordering::Relaxed);
    });
    (slices, issued.into_inner())
}

/// Slices whose time counts towards throughput, and slices whose samples
/// count towards latency.
pub fn split(slices: &[Slice]) -> (Vec<Slice>, Vec<Slice>) {
    slices
        .iter()
        .copied()
        .partition(|s| !is_latency_slice(s.index))
}

/// Output check of a `ComputeIfAbsent` after `issued` operations.
pub fn check(bench: &ComputeIfAbsent, issued: u64) -> Result<(), String> {
    let (acquisitions, _) = bench.contention();
    if acquisitions != issued {
        return Err(format!(
            "semantic lock counted {acquisitions} acquisitions for {issued} operations issued"
        ));
    }
    bench.validate()
}

/// The benchmark-side twin of the CIA section, built from the same
/// public pieces `workloads::ComputeIfAbsent` is built from, so the
/// traced run can put a span on each layer boundary without touching the
/// program.
pub struct Twin {
    table: Arc<ModeTable>,
    site: LockSiteId,
    site_id: u32,
    lock: SemLock,
    map: MapAdt,
}

/// The emulated pure computation of §6.1: allocate 128 bytes.
fn compute_value(k: Value) -> Value {
    let buf = std::hint::black_box(vec![0u8; 128]);
    std::hint::black_box(&buf);
    Value(k.0 + 1)
}

impl Twin {
    pub fn build() -> Twin {
        let out = Synthesizer::new(registry())
            .phi(Phi::fib(64))
            .synthesize(&[cia_section()]);
        let (site, _class) = runtime_site(&out, "cia", "map");
        let table = out.tables.table("Map").clone();
        Twin {
            site,
            site_id: stable_site(&out, "cia", "map"),
            lock: SemLock::builder(table.clone()).build(),
            table,
            map: MapAdt::new(),
        }
    }

    pub fn lock(&self) -> &SemLock {
        &self.lock
    }

    /// The mode the section's lock site selects for key `k`.
    pub fn select(&self, k: Value) -> ModeId {
        self.table.select(self.site, &[k])
    }

    /// The section's body alone, no locking.
    pub fn body(&self, k: Value) {
        if !self.map.contains_key(k) {
            self.map.put(k, compute_value(k));
        }
    }

    /// One invocation, exactly the steps `ComputeIfAbsent::invoke` takes.
    pub fn op(&self, k: Value) {
        let mode = self.select(k);
        let mut txn = Txn::new();
        if semlock::telemetry::enabled() {
            semlock::telemetry::set_site(self.site_id);
        }
        txn.acquire(&self.lock, &AcquireSpec::new(mode))
            .expect("cia twin: semantic acquisition failed");
        self.body(k);
        txn.unlock_all();
    }

    /// [`Twin::op`] with a clock read at every layer boundary: one root
    /// span and its four children.
    pub fn op_traced(&self, k: Value, epoch: Instant, worker: u16, ring: &mut SpanRing) {
        let t0 = Instant::now();
        let mode = self.select(k);
        let t1 = Instant::now();
        let mut txn = Txn::new();
        if semlock::telemetry::enabled() {
            semlock::telemetry::set_site(self.site_id);
        }
        txn.acquire(&self.lock, &AcquireSpec::new(mode))
            .expect("cia twin: semantic acquisition failed");
        let t2 = Instant::now();
        self.body(k);
        let t3 = Instant::now();
        txn.unlock_all();
        let t4 = Instant::now();

        let at = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
        // Ids are unique per worker stream: the high bits carry the worker.
        let root = (u64::from(worker) << 48) | (ring.recorded + 1);
        let mut push = |id, parent, name, a, b, attempts| {
            ring.push(Span {
                id,
                parent,
                name,
                worker,
                start_ns: at(a),
                end_ns: at(b),
                attempts,
            })
        };
        push(root, 0, "section", t0, t4, 1);
        push(root + 1, root, "semlock.select", t0, t1, 0);
        push(root + 2, root, "semlock.acquire", t1, t2, 0);
        push(root + 3, root, "adts.body", t2, t3, 0);
        push(root + 4, root, "semlock.release", t3, t4, 0);
    }

    /// Output check: every key of `touched` maps to `k + 1`, nothing
    /// else is in the map, and the lock counted every operation.
    pub fn check(&self, touched: &[bool], issued: u64) -> Result<(), String> {
        let distinct = touched.iter().filter(|t| **t).count();
        if self.map.size() != distinct {
            return Err(format!(
                "twin map holds {} keys, {distinct} distinct keys were touched",
                self.map.size()
            ));
        }
        for (k, _) in touched.iter().enumerate().filter(|(_, t)| **t) {
            let v = self.map.get(Value(k as u64));
            if v != Value(k as u64 + 1) {
                return Err(format!("twin key {k} maps to {v}, expected {}", k + 1));
            }
        }
        let (acquisitions, _) = self.lock.contention();
        if acquisitions != issued {
            return Err(format!(
                "twin lock counted {acquisitions} acquisitions for {issued} operations issued"
            ));
        }
        if self.lock.total_holds() != 0 {
            return Err(format!(
                "twin lock still holds {} modes at quiescence",
                self.lock.total_holds()
            ));
        }
        Ok(())
    }
}

/// What the traced run of a `cia_*` workload produced.
pub struct TracedRun {
    /// All slices of the block design; variant 0 is the untraced
    /// `invoke`, variant 1 the traced twin.
    pub slices: Vec<Slice>,
    pub spans: Vec<Span>,
    pub issued_untraced: u64,
    pub issued_twin: u64,
}

/// Slices per block of the traced run's untraced/traced alternation.
pub const TRACE_BLOCK: usize = 5;

/// The traced run: blocks of untraced `invoke` slices alternate with
/// blocks of the traced twin, same key segments, same thread count.
pub fn run_traced(
    bench: &ComputeIfAbsent,
    twin: &Twin,
    keys: &[u32],
    threads: usize,
    ops_per_slice: usize,
    budget: Budget,
) -> TracedRun {
    let epoch = Instant::now();
    let rings: Vec<Mutex<SpanRing>> = (0..threads)
        .map(|_| Mutex::new(SpanRing::new(SPAN_RING)))
        .collect();
    let issued = [AtomicU64::new(0), AtomicU64::new(0)];
    let slices = slices::run(threads, budget, |w, index, lat| {
        let (start, n) = share(ops_per_slice, threads, w, index);
        let variant = slices::variant_of(index, TRACE_BLOCK, 2);
        if variant == 0 {
            drive(keys, (start, n), index, lat, |k| bench.invoke(k));
        } else {
            let mut ring = rings[w].lock().expect("span ring poisoned");
            for_keys(keys, start, n, |j, k| {
                if j % SPAN_EVERY == 0 {
                    twin.op_traced(k, epoch, w as u16, &mut ring);
                } else {
                    twin.op(k);
                }
            });
        }
        issued[variant].fetch_add(n as u64, Ordering::Relaxed);
    });
    let mut spans: Vec<Span> = rings
        .into_iter()
        .flat_map(|r| r.into_inner().expect("span ring poisoned").into_spans())
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let [untraced, twin_ops] = issued;
    TracedRun {
        slices,
        spans,
        issued_untraced: untraced.into_inner(),
        issued_twin: twin_ops.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::cia_keys;

    #[test]
    fn shares_split_a_slice_evenly_and_advance_through_the_stream() {
        assert_eq!(share(1000, 2, 0, 0), (0, 500));
        assert_eq!(share(1000, 2, 1, 0), (500, 500));
        assert_eq!(share(1000, 2, 0, 3), (3000, 500));
        let (start, _) = share(1000, 1, 0, CIA_STREAM_LEN);
        assert!(start < CIA_STREAM_LEN);
    }

    #[test]
    fn untraced_and_twin_runs_pass_their_checks() {
        let keys = cia_keys(1);
        let bench = build(SyncKind::Semantic);
        let pre = prepopulate(|k| bench.invoke(k));
        let (slices, issued) = run(&bench, &keys, 2, 2_000, Budget::exactly(8));
        let (throughput, latency) = split(&slices);
        assert_eq!((throughput.len(), latency.len()), (6, 2));
        assert!(throughput.iter().all(|s| s.samples == 0));
        assert_eq!(latency[0].samples, 2 * 1000usize.div_ceil(LATENCY_EVERY));
        check(&bench, pre + issued).unwrap();
        // One operation unaccounted for is caught.
        assert!(check(&bench, pre + issued + 1).is_err());

        let twin = Twin::build();
        let mut touched = vec![false; CIA_KEY_RANGE as usize];
        for k in [3u64, 5, 3, 900] {
            twin.op(Value(k));
            touched[k as usize] = true;
        }
        let mut ring = SpanRing::new(16);
        twin.op_traced(Value(7), Instant::now(), 0, &mut ring);
        touched[7] = true;
        twin.check(&touched, 5).unwrap();
        touched[8] = true;
        assert!(twin.check(&touched, 5).is_err(), "a missing key is caught");
        let spans = ring.into_spans();
        assert_eq!(spans.len(), 5);
        // Chained clock reads: the children tile the root exactly.
        assert_eq!(crate::trace::self_times(&spans)[&spans[0].id], 0);
    }
}
