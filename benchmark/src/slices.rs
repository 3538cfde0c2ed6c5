//! The slice runner: persistent worker threads doing equal-work slices
//! with a rendezvous between slices.
//!
//! Each worker times its own share of a slice; the slice's time is the
//! slowest worker's. The calling thread blocks in `join` for the whole
//! run, so a workload with `workers` threads has exactly that many
//! runnable threads — never more than the 2 vCPUs this box has.

use crate::estimator::{quantile, sample_quantile, QUIET};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Slices run before recording starts, so caches, the allocator and
/// lazily built state are warm.
pub const WARMUP_SLICES: usize = 5;

/// How many slices a run makes.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Keep slicing until this much time has been recorded …
    pub seconds: f64,
    /// … but record at least this many slices …
    pub min_slices: usize,
    /// … and never more than this many.
    pub max_slices: usize,
}

impl Budget {
    /// `seconds` of slices, at least `min_slices`.
    pub fn at_least(min_slices: usize, seconds: f64) -> Budget {
        Budget {
            seconds,
            min_slices,
            max_slices: usize::MAX,
        }
    }

    /// Exactly `n` slices.
    pub fn exactly(n: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_slices: n,
            max_slices: n,
        }
    }
}

/// One recorded slice.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Index handed to the work function (warm-up slices included, so it
    /// selects the input segment and, in block designs, the variant).
    pub index: usize,
    /// The slowest worker's time for its share.
    pub ns: u64,
    /// p50 / p99 of the latency samples all workers pushed this slice
    /// (`NaN` when none were pushed).
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Number of latency samples behind `p50_ns` / `p99_ns`.
    pub samples: usize,
}

/// Pin the calling thread to one CPU, worker `w` to CPU `w`. Without
/// this the guest scheduler may leave two fresh workers on one vCPU for
/// the first half second of a run; they then take turns, never contend,
/// and those slices are *faster* per op than any honest slice. Best
/// effort: on failure the thread simply stays unpinned.
fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    if cpu >= 64 {
        return;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `sched_setaffinity` (libc, which std already links) reads
    // `cpusetsize` bytes from `mask`; both describe the one live `u64`
    // above. Pid 0 means the calling thread. It has no other effect on
    // memory, and its failure is ignored.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// All-threads-arrive barrier that spins: both workers are runnable on
/// their own vCPU and the waits are microseconds, so parking (and the
/// wake-up latency it would add to one side of a slice) is avoided.
struct Rendezvous {
    arrived: AtomicUsize,
    parties: usize,
}

impl Rendezvous {
    /// Wait until every party has arrived at `round` (0, 1, 2, …).
    fn wait(&self, round: usize) {
        // Release/Acquire: everything a party wrote before arriving is
        // visible to every party that leaves the same round.
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let target = self.parties * (round + 1);
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) < target {
            spins += 1;
            if spins > 20_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Run slices of `work(worker, slice_index, latency_samples)` on
/// `workers` persistent threads until `budget` is met; returns the
/// recorded slices (warm-up excluded) in order.
///
/// `work` must do the same amount of work for every slice index; it may
/// push per-request latencies (ns) into the sample buffer it is given.
pub fn run<F>(workers: usize, budget: Budget, work: F) -> Vec<Slice>
where
    F: Fn(usize, usize, &mut Vec<u32>) + Sync,
{
    assert!(workers >= 1);
    let rv = Rendezvous {
        arrived: AtomicUsize::new(0),
        parties: workers,
    };
    let stop = AtomicBool::new(false);
    let elapsed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let samples: Vec<Mutex<Vec<u32>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    let limit = Duration::from_secs_f64(budget.seconds.max(0.0));

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (rv, stop, elapsed, samples, work) = (&rv, &stop, &elapsed, &samples, &work);
                scope.spawn(move || {
                    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                    if workers > 1 && workers <= cpus {
                        pin_to_cpu(w);
                    }
                    let leader = w == 0;
                    let mut recorded: Vec<Slice> = Vec::new();
                    let mut merged: Vec<u32> = Vec::new();
                    let mut started: Option<Instant> = None;
                    let mut round = 0;
                    for index in 0.. {
                        if leader {
                            if index == WARMUP_SLICES {
                                started = Some(Instant::now());
                            }
                            let timed_out = started.is_some_and(|t| t.elapsed() >= limit);
                            let done = recorded.len() >= budget.max_slices
                                || (recorded.len() >= budget.min_slices && timed_out);
                            // Published by the rendezvous below.
                            stop.store(done, Ordering::Relaxed);
                        }
                        rv.wait(round);
                        round += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        {
                            let mut buf = samples[w].lock().expect("sample buffer poisoned");
                            buf.clear();
                            let t0 = Instant::now();
                            work(w, index, &mut buf);
                            elapsed[w].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        rv.wait(round);
                        round += 1;
                        if leader && index >= WARMUP_SLICES {
                            merged.clear();
                            for s in samples {
                                merged
                                    .extend_from_slice(&s.lock().expect("sample buffer poisoned"));
                            }
                            let (p50_ns, p99_ns) = if merged.is_empty() {
                                (f64::NAN, f64::NAN)
                            } else {
                                (
                                    sample_quantile(&mut merged, 0.50),
                                    sample_quantile(&mut merged, 0.99),
                                )
                            };
                            recorded.push(Slice {
                                index,
                                ns: elapsed
                                    .iter()
                                    .map(|e| e.load(Ordering::Relaxed))
                                    .max()
                                    .unwrap_or(0),
                                p50_ns,
                                p99_ns,
                                samples: merged.len(),
                            });
                        }
                    }
                    recorded
                })
            })
            .collect();
        let mut all = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"));
        let recorded = all.next().expect("at least one worker");
        all.for_each(drop);
        recorded
    })
}

/// The reported numbers of one run (or one variant of a block design).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Quiet-slice time per operation, ns (aggregate over workers).
    pub ns_per_op: f64,
    /// The same as operations per second.
    pub ops_per_s: f64,
    /// Quiet-slice quantile of the per-slice p50 / p99 latency, ns.
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Slices behind every number above.
    pub slices: usize,
    /// Latency samples per slice.
    pub samples_per_slice: usize,
}

/// Reduce slices of `ops_per_slice` operations to the quiet-slice
/// quantile `q` of their times and latencies.
pub fn summarize_at(slices: &[Slice], ops_per_slice: usize, q: f64) -> Summary {
    let times: Vec<f64> = slices.iter().map(|s| s.ns as f64).collect();
    let ns_per_op = quantile(&times, q) / ops_per_slice as f64;
    let lat = |f: fn(&Slice) -> f64| {
        let v: Vec<f64> = slices.iter().map(f).filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            quantile(&v, q)
        }
    };
    Summary {
        ns_per_op,
        ops_per_s: 1e9 / ns_per_op,
        p50_ns: lat(|s| s.p50_ns),
        p99_ns: lat(|s| s.p99_ns),
        slices: slices.len(),
        samples_per_slice: slices.first().map_or(0, |s| s.samples),
    }
}

/// [`summarize_at`] the quiet share: what a run reports.
pub fn summarize(slices: &[Slice], ops_per_slice: usize) -> Summary {
    summarize_at(slices, ops_per_slice, QUIET)
}

/// Block design: slice `i` belongs to variant `(i / block) % variants`,
/// and the first slice of each block re-warms caches and predictors for
/// its variant, so it is discarded.
pub fn variant_of(index: usize, block: usize, variants: usize) -> usize {
    (index / block) % variants
}

/// The recorded slices of one variant of a block design, without each
/// block's re-warm slice.
pub fn slices_of_variant(
    slices: &[Slice],
    block: usize,
    variants: usize,
    variant: usize,
) -> Vec<Slice> {
    slices
        .iter()
        .filter(|s| variant_of(s.index, block, variants) == variant && s.index % block != 0)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn exact_budget_records_that_many_slices_after_warmup() {
        let calls = AtomicU64::new(0);
        let slices = run(2, Budget::exactly(7), |_, index, lat| {
            calls.fetch_add(1, Ordering::Relaxed);
            lat.push(index as u32);
        });
        assert_eq!(slices.len(), 7);
        assert_eq!(slices[0].index, WARMUP_SLICES);
        assert_eq!(slices[6].index, WARMUP_SLICES + 6);
        // Both workers ran every slice, warm-up included.
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2 * (WARMUP_SLICES as u64 + 7)
        );
        // Two samples per slice, both equal to the slice index.
        assert_eq!(slices[0].samples, 2);
        assert!((slices[0].p50_ns - (WARMUP_SLICES as f64 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn slice_time_is_the_slowest_worker() {
        let slices = run(2, Budget::exactly(3), |w, _, _| {
            if w == 1 {
                std::thread::sleep(Duration::from_millis(3));
            }
        });
        assert!(slices.iter().all(|s| s.ns >= 3_000_000), "{slices:?}");
        assert!(slices.iter().all(|s| s.p50_ns.is_nan() && s.samples == 0));
    }

    #[test]
    fn summary_takes_the_quiet_quantile_of_times_and_latencies() {
        let slices: Vec<Slice> = (0..101)
            .map(|i| Slice {
                index: i,
                ns: 1_000_000 + 10_000 * i as u64,
                p50_ns: 100.0 + i as f64,
                p99_ns: 200.0 + i as f64,
                samples: 10,
            })
            .collect();
        let s = summarize(&slices, 1000);
        assert!((s.ns_per_op - 1100.0).abs() < 1e-9);
        assert!((s.ops_per_s - 1e9 / 1100.0).abs() < 1e-6);
        assert!((s.p50_ns - 110.0).abs() < 1e-9);
        assert!((s.p99_ns - 210.0).abs() < 1e-9);
        assert_eq!((s.slices, s.samples_per_slice), (101, 10));
        let q = summarize_at(&slices, 1000, 0.25);
        assert!((q.ns_per_op - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn block_design_drops_the_rewarm_slice() {
        let slices: Vec<Slice> = (0..16)
            .map(|i| Slice {
                index: i,
                ns: 1,
                p50_ns: f64::NAN,
                p99_ns: f64::NAN,
                samples: 0,
            })
            .collect();
        let a: Vec<usize> = slices_of_variant(&slices, 4, 2, 0)
            .iter()
            .map(|s| s.index)
            .collect();
        let b: Vec<usize> = slices_of_variant(&slices, 4, 2, 1)
            .iter()
            .map(|s| s.index)
            .collect();
        assert_eq!(a, [1, 2, 3, 9, 10, 11]);
        assert_eq!(b, [5, 6, 7, 13, 14, 15]);
    }
}
