//! A linearizable Map ADT.
//!
//! The Map of the paper's running example (Fig. 1): `get`, `put`, `remove`,
//! `containsKey`, `size`, `clear`. The paper explicitly allows each ADT to
//! use its own internal concurrency control (§1, *Modularity and
//! compositionality*); the semantic locks layered on top never depend on
//! it — but they only scale if nothing under them is a single hot word, so
//! the map stripes itself once it is big enough to be shared.
//!
//! # Small and striped
//!
//! A map starts **small**: one table under one mutex, the footprint and
//! code path of a plain `Mutex<HashMap>`. The insert that takes it past
//! `PROMOTE_ABOVE` entries moves them, still holding the small-table
//! mutex, into `STRIPES` line-aligned tables and publishes the `striped`
//! flag. Promotion is one-way; from then on the small table stays empty.
//!
//! * Per-key operations (`get`, `put`, `remove`, `containsKey`) hold one
//!   lock: the small table's, or — once striped — the one stripe a
//!   multiplicative hash of the key selects.
//! * Whole-map operations (`size`, `clear`, `entries`, `drain_entries`)
//!   lock the small table, then every stripe in index order, and hold them
//!   all while they run.
//!
//! Per-key operations never hold two locks and whole-map operations take
//! theirs in one fixed order, so the scheme cannot deadlock; every
//! operation takes effect at a point where it holds every lock covering
//! the entries it reads or writes, so it stays linearizable.

use parking_lot::{Mutex, MutexGuard};
use semlock::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

type Table = HashMap<Value, Value>;

/// Number of stripes of a promoted map (a power of two: the stripe index
/// is the top [`STRIPE_BITS`] bits of the key's hash).
const STRIPES: usize = 1 << STRIPE_BITS;
const STRIPE_BITS: u32 = 6;

/// A map stays one table while it holds at most this many entries: eight
/// per stripe it would be split into. Below that, a second mutex buys
/// nothing and costs a cache line per stripe.
const PROMOTE_ABOVE: usize = 8 * STRIPES;

/// One stripe of a promoted map, on cache lines of its own (128 bytes:
/// the adjacent-line prefetcher pairs 64-byte lines) so that two threads
/// on different stripes share no written line.
#[repr(align(128))]
#[derive(Default)]
struct Stripe(Mutex<Table>);

/// A linearizable `Value → Value` map.
#[derive(Default)]
pub struct MapAdt {
    /// The only table while the map is small; empty once it is striped.
    small: Mutex<Table>,
    /// Set once, under the `small` mutex, after the entries have moved to
    /// `stripes`.
    striped: AtomicBool,
    /// Allocated by the promoting insert.
    stripes: OnceLock<Box<[Stripe]>>,
}

impl MapAdt {
    /// Create an empty map.
    pub fn new() -> MapAdt {
        MapAdt::default()
    }

    fn stripes(&self) -> &[Stripe] {
        self.stripes
            .get_or_init(|| (0..STRIPES).map(|_| Stripe::default()).collect())
    }

    /// Lock the stripe holding `k`.
    fn stripe(&self, k: Value) -> MutexGuard<'_, Table> {
        // 2^64 / golden ratio; the top bits are the well-mixed ones.
        let h = k.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.stripes()[(h >> (u64::BITS - STRIPE_BITS)) as usize]
            .0
            .lock()
    }

    /// Lock the one table that holds (or would hold) `k`.
    fn table(&self, k: Value) -> MutexGuard<'_, Table> {
        // Ordering: Acquire pairs with the Release store in `promote`. A
        // thread that sees `true` here skips the `small` mutex, so this is
        // the edge that orders the promoter's stripe allocation and moved
        // entries before its own stripe access.
        if self.striped.load(Ordering::Acquire) {
            return self.stripe(k);
        }
        let small = self.small.lock();
        // Ordering: Relaxed — the flag is only ever stored with `small`
        // held, so the mutex hand-over already orders that store (and
        // everything before it) before this load.
        if self.striped.load(Ordering::Relaxed) {
            drop(small);
            return self.stripe(k);
        }
        small
    }

    /// Move a small table that has outgrown [`PROMOTE_ABOVE`] into the
    /// stripes. The caller holds the `small` mutex, so no other operation
    /// can be inside the small table, and none can reach a stripe before
    /// the flag is published.
    #[cold]
    fn promote(&self, small: &mut Table) {
        for (k, v) in small.drain() {
            self.stripe(k).insert(k, v);
        }
        small.shrink_to_fit();
        // Ordering: Release publishes the stripe allocation and the moved
        // entries to the Acquire load in `table`.
        self.striped.store(true, Ordering::Release);
    }

    /// Run `f` on every table that can hold entries, with the whole map
    /// locked: the small table, then (once striped) every stripe in index
    /// order.
    fn for_all_tables(&self, mut f: impl FnMut(&mut Table)) {
        let mut small = self.small.lock();
        // Ordering: Relaxed under the `small` mutex, as in `table`.
        if !self.striped.load(Ordering::Relaxed) {
            return f(&mut small);
        }
        // `small` stays held (and empty) so whole-map operations also
        // serialise among themselves on one lock.
        let mut stripes: Vec<_> = self.stripes().iter().map(|s| s.0.lock()).collect();
        stripes.iter_mut().for_each(|t| f(t));
    }

    /// `get(k)`: the value bound to `k`, or [`Value::NULL`].
    pub fn get(&self, k: Value) -> Value {
        self.table(k).get(&k).copied().unwrap_or(Value::NULL)
    }

    /// `put(k, v)`: bind `k` to `v`; returns the previous value or NULL.
    pub fn put(&self, k: Value, v: Value) -> Value {
        let mut table = self.table(k);
        let prev = table.insert(k, v).unwrap_or(Value::NULL);
        // Ordering: Relaxed — `table` handed out a stripe only after this
        // thread saw the flag set (it never resets), and the small table
        // only with the flag clear under the mutex that guards its store.
        // So `false` here means `table` is the small table, still held.
        if table.len() > PROMOTE_ABOVE && !self.striped.load(Ordering::Relaxed) {
            self.promote(&mut table);
        }
        prev
    }

    /// `remove(k)`: unbind `k`; returns the previous value or NULL.
    pub fn remove(&self, k: Value) -> Value {
        self.table(k).remove(&k).unwrap_or(Value::NULL)
    }

    /// `containsKey(k)`.
    pub fn contains_key(&self, k: Value) -> bool {
        self.table(k).contains_key(&k)
    }

    /// `size()`.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.for_all_tables(|t| n += t.len());
        n
    }

    /// `clear()`.
    pub fn clear(&self) {
        self.for_all_tables(Table::clear);
    }

    /// Drain all entries (used by the Tomcat cache's overflow path, which
    /// the paper models as a sequence of Map operations inside one atomic
    /// section).
    pub fn drain_entries(&self) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        self.for_all_tables(|t| out.extend(t.drain()));
        out
    }

    /// Snapshot of all entries.
    pub fn entries(&self) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        self.for_all_tables(|t| out.extend(t.iter().map(|(&k, &v)| (k, v))));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let m = MapAdt::new();
        assert_eq!(m.get(Value(1)), Value::NULL);
        assert_eq!(m.put(Value(1), Value(10)), Value::NULL);
        assert_eq!(m.get(Value(1)), Value(10));
        assert_eq!(m.put(Value(1), Value(11)), Value(10));
        assert_eq!(m.remove(Value(1)), Value(11));
        assert_eq!(m.remove(Value(1)), Value::NULL);
    }

    #[test]
    fn contains_size_clear() {
        let m = MapAdt::new();
        for i in 0..10 {
            m.put(Value(i), Value(i * 2));
        }
        assert_eq!(m.size(), 10);
        assert!(m.contains_key(Value(3)));
        assert!(!m.contains_key(Value(30)));
        m.clear();
        assert_eq!(m.size(), 0);
        assert!(!m.contains_key(Value(3)));
    }

    #[test]
    fn drain_moves_everything() {
        let m = MapAdt::new();
        for i in 0..5 {
            m.put(Value(i), Value(i));
        }
        let drained = m.drain_entries();
        assert_eq!(drained.len(), 5);
        assert_eq!(m.size(), 0);
    }

    fn is_striped(m: &MapAdt) -> bool {
        m.striped.load(Ordering::Acquire)
    }

    #[test]
    fn promotes_on_the_insert_past_the_threshold() {
        let m = MapAdt::new();
        let n = PROMOTE_ABOVE as u64;
        for k in 0..n {
            m.put(Value(k), Value(k + 1));
        }
        assert!(!is_striped(&m), "still one table at the threshold");
        // Overwriting at the threshold does not grow the table.
        assert_eq!(m.put(Value(0), Value(1)), Value(1));
        assert!(!is_striped(&m));
        assert_eq!(m.put(Value(n), Value(n + 1)), Value::NULL);
        assert!(is_striped(&m), "the insert past the threshold promotes");
        assert!(m.small.lock().is_empty());

        assert_eq!(m.size(), PROMOTE_ABOVE + 1);
        for k in 0..=n {
            assert_eq!(m.get(Value(k)), Value(k + 1));
        }
        let mut entries = m.entries();
        entries.sort();
        let want: Vec<_> = (0..=n).map(|k| (Value(k), Value(k + 1))).collect();
        assert_eq!(entries, want);
        assert_eq!(m.remove(Value(3)), Value(4));
        assert!(!m.contains_key(Value(3)));

        // Promotion is one-way: an emptied map keeps its stripes.
        let mut drained = m.drain_entries();
        drained.sort();
        assert_eq!(drained.len(), PROMOTE_ABOVE);
        assert_eq!(m.size(), 0);
        m.put(Value(7), Value(8));
        m.clear();
        assert_eq!(m.size(), 0);
        assert!(is_striped(&m));
        m.put(Value(7), Value(9));
        assert!(m.small.lock().is_empty());
        assert_eq!(m.entries(), vec![(Value(7), Value(9))]);
    }

    /// Writers insert disjoint key ranges through the promotion point
    /// while one reader runs per-key and one whole-map operations: no
    /// entry may be lost, duplicated or seen early, at any moment or at
    /// the end. Each round starts a fresh map just under the threshold, so
    /// promotion happens right after the barrier, with the readers
    /// running.
    #[test]
    fn concurrent_inserts_through_promotion() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        const ROUNDS: usize = 100;
        const WRITERS: usize = 2;
        const PER_WRITER: usize = 48;
        const PRELOAD: usize = PROMOTE_ABOVE - 4;
        const TOTAL: usize = PRELOAD + WRITERS * PER_WRITER;
        let value = |k: Value| Value(k.0 + 1);
        let written = |w: usize, i: usize| Value((PRELOAD + w * PER_WRITER + i) as u64);

        for _ in 0..ROUNDS {
            let m = MapAdt::new();
            for k in (0..PRELOAD as u64).map(Value) {
                m.put(k, value(k));
            }
            assert!(!is_striped(&m));
            let start = Barrier::new(WRITERS + 2);
            // Puts begun / completed, over all writers and per writer.
            let begun = AtomicUsize::new(PRELOAD);
            let done = AtomicUsize::new(PRELOAD);
            let done_by: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
            let (m, start, begun, done, done_by) = (&m, &start, &begun, &done, &done_by);

            std::thread::scope(|s| {
                for (w, done_by_me) in done_by.iter().enumerate() {
                    s.spawn(move || {
                        start.wait();
                        for i in 0..PER_WRITER {
                            begun.fetch_add(1, Ordering::SeqCst);
                            let k = written(w, i);
                            assert_eq!(m.put(k, value(k)), Value::NULL);
                            done_by_me.store(i + 1, Ordering::SeqCst);
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
                // Per-key reader: a completed put is never lost.
                s.spawn(move || {
                    start.wait();
                    let mut finished = false;
                    let mut next = 0;
                    while !finished {
                        finished = done.load(Ordering::SeqCst) == TOTAL;
                        for _ in 0..16 {
                            let k = Value(next);
                            next = (next + 1) % PRELOAD as u64;
                            assert_eq!(m.get(k), value(k), "lost preloaded {k}");
                        }
                        for (w, done_by_w) in done_by.iter().enumerate() {
                            for i in 0..done_by_w.load(Ordering::SeqCst) {
                                let k = written(w, i);
                                assert!(m.contains_key(k), "lost written {k}");
                            }
                        }
                    }
                });
                // Whole-map reader: every snapshot lies between the puts
                // completed before it and the puts begun after it.
                s.spawn(move || {
                    start.wait();
                    let mut finished = false;
                    while !finished {
                        finished = done.load(Ordering::SeqCst) == TOTAL;
                        let lo = done.load(Ordering::SeqCst);
                        let size = m.size();
                        let hi = begun.load(Ordering::SeqCst);
                        assert!(lo <= size && size <= hi, "size {size} not in {lo}..={hi}");

                        let lo = done.load(Ordering::SeqCst);
                        let mut entries = m.entries();
                        let hi = begun.load(Ordering::SeqCst);
                        let listed = entries.len();
                        assert!(lo <= listed && listed <= hi, "{listed} not in {lo}..={hi}");
                        assert!(entries.iter().all(|&(k, v)| v == value(k)));
                        entries.sort();
                        entries.dedup_by_key(|e| e.0);
                        assert_eq!(entries.len(), listed, "entries() repeated a key");
                    }
                });
            });

            assert!(is_striped(m));
            assert_eq!(m.size(), TOTAL);
            let mut entries = m.entries();
            entries.sort();
            let want: Vec<_> = (0..TOTAL as u64)
                .map(|k| (Value(k), Value(k + 1)))
                .collect();
            assert_eq!(entries, want, "final entries are the union of the ranges");
        }
    }
}
