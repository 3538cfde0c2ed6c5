//! The deadlock watchdog: a registry of blocked acquisitions with a
//! waits-for cycle check.
//!
//! The registry is **off the hot path**: a transaction registers only after
//! a bounded acquisition has already waited one probe slice without
//! admission, and uncontended acquisitions never touch it. This holds by
//! construction on the packed-word admission fast path
//! ([`crate::mech`]) too — an admission that succeeds on the first CAS
//! never reaches a probe slice, so watchdog registration remains strictly
//! a slow-path (parked-waiter) affair. Once registered,
//! each probe runs a cycle check over the waits-for graph: transaction `A`
//! waits on transaction `B` when `B` (itself blocked, hence registered)
//! holds a mode on the instance `A` is waiting for that does not commute
//! with `A`'s requested mode. Every member of a genuine cycle is blocked,
//! so every member eventually registers and the cycle becomes visible; the
//! member with the **largest transaction id** converts it into a
//! [`crate::error::LockError::WouldDeadlock`] instead of hanging.
//! Transaction ids are a unique total order (allocated in per-thread
//! blocks, so increasing per thread but not ordered by age across
//! threads), which is all recovery needs: every cycle has exactly one
//! maximum-id member to abort, and its minimum-id member always survives.
//!
//! To rule out false positives from the tiny window between a waiter
//! acquiring its mode and deregistering, a cycle must be sighted on two
//! consecutive probes (≥ one probe interval apart) before the victim
//! aborts. A genuine cycle is stable — nobody in it can make progress — so
//! double-sighting never misses a real deadlock.
//!
//! The watchdog only sees transactions that wait through the bounded API
//! ([`crate::txn::Txn::lv_deadline`] and friends). A cycle in which some
//! member blocks through the unbounded [`crate::txn::Txn::lv`] is invisible
//! (missing edges); bounded members of such a cycle still escape through
//! their deadline.

use crate::mode::{ModeId, ModeTable};
use crate::telemetry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Transaction identifier (same values the [`crate::protocol`] recorder
/// uses).
pub type TxnId = u64;

/// One registered blocked acquisition.
struct WaitEntry {
    /// Instance the transaction is blocked on.
    instance: u64,
    /// The requested mode.
    mode: ModeId,
    /// The mode table governing `instance` (evaluates conflicts).
    table: Arc<ModeTable>,
    /// Snapshot of the instances/modes the transaction already holds.
    /// Valid for the whole wait: a blocked transaction cannot release.
    held: Vec<(u64, ModeId)>,
}

/// Counters exposed for diagnostics and the bench harness.
#[derive(Debug, Default)]
pub struct WatchdogStats {
    /// Total registrations (acquisitions that waited past one probe slice).
    pub registrations: AtomicU64,
    /// Waits-for cycles converted into `WouldDeadlock` errors.
    pub deadlocks: AtomicU64,
}

/// The registry of blocked acquisitions.
#[derive(Default)]
pub struct Watchdog {
    waiters: Mutex<HashMap<TxnId, WaitEntry>>,
    stats: WatchdogStats,
}

static GLOBAL: OnceLock<Watchdog> = OnceLock::new();

/// The process-global watchdog instance.
pub fn global() -> &'static Watchdog {
    GLOBAL.get_or_init(Watchdog::default)
}

impl Watchdog {
    /// Register a blocked acquisition. Called at most once per wait, after
    /// the first probe slice has elapsed without admission.
    pub fn register(
        &self,
        txn: TxnId,
        instance: u64,
        mode: ModeId,
        table: Arc<ModeTable>,
        held: Vec<(u64, ModeId)>,
    ) {
        self.stats.registrations.fetch_add(1, Ordering::Relaxed);
        self.waiters.lock().insert(
            txn,
            WaitEntry {
                instance,
                mode,
                table,
                held,
            },
        );
    }

    /// Remove a registration (the wait ended: acquired, timed out, or
    /// aborted).
    pub fn deregister(&self, txn: TxnId) {
        self.waiters.lock().remove(&txn);
    }

    /// Number of currently registered blocked acquisitions.
    pub fn waiting(&self) -> usize {
        self.waiters.lock().len()
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> &WatchdogStats {
        &self.stats
    }

    /// Record that a detected cycle was converted into an abort: `txn`
    /// (the youngest member) gave up acquiring `mode` on `instance`;
    /// `cycle` is the sorted member list that becomes the
    /// [`crate::error::LockError::WouldDeadlock`] payload. With telemetry
    /// on, the same data is recorded as a [`telemetry::CycleRecord`] so
    /// the exported member list always matches the error payload.
    pub fn note_deadlock(
        &self,
        txn: TxnId,
        instance: u64,
        mode: ModeId,
        site: u32,
        cycle: &[TxnId],
    ) {
        self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
        if telemetry::enabled() {
            telemetry::record_cycle(txn, instance, mode.0, site, cycle);
        }
    }

    /// Find a waits-for cycle through `txn`, returning the sorted member
    /// ids, or `None` if `txn` is not currently part of any cycle.
    pub fn cycle_through(&self, txn: TxnId) -> Option<Vec<TxnId>> {
        let map = self.waiters.lock();
        map.get(&txn)?;
        // DFS from `txn`; an edge a→b exists when b holds a conflicting
        // mode on the instance a waits for. The registry is small (only
        // currently-blocked transactions), so the quadratic edge test is
        // fine.
        fn blocks(map: &HashMap<TxnId, WaitEntry>, a: TxnId, b: TxnId) -> bool {
            let ea = &map[&a];
            map[&b]
                .held
                .iter()
                .any(|&(inst, m)| inst == ea.instance && !ea.table.fc(ea.mode, m))
        }
        fn dfs(
            map: &HashMap<TxnId, WaitEntry>,
            cur: TxnId,
            start: TxnId,
            path: &mut Vec<TxnId>,
            visited: &mut Vec<TxnId>,
        ) -> bool {
            for &next in map.keys() {
                if next == cur || !blocks(map, cur, next) {
                    continue;
                }
                if next == start {
                    return true;
                }
                if visited.contains(&next) {
                    continue;
                }
                visited.push(next);
                path.push(next);
                if dfs(map, next, start, path, visited) {
                    return true;
                }
                path.pop();
            }
            false
        }
        let mut path = vec![txn];
        let mut visited = vec![txn];
        if dfs(&map, txn, txn, &mut path, &mut visited) {
            path.sort_unstable();
            Some(path)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phi::Phi;
    use crate::schema::set_schema;
    use crate::spec::CommutSpec;
    use crate::symbolic::{SymArg, SymOp, SymbolicSet};
    use crate::value::Value;

    fn exclusive_table() -> (Arc<ModeTable>, ModeId) {
        let s = set_schema();
        let spec = CommutSpec::builder(s.clone())
            .never("add", "add")
            .never("add", "remove")
            .never("add", "size")
            .never("add", "clear")
            .never("add", "contains")
            .never("remove", "remove")
            .never("remove", "size")
            .never("remove", "clear")
            .never("remove", "contains")
            .never("size", "size")
            .never("size", "clear")
            .never("size", "contains")
            .never("clear", "clear")
            .never("clear", "contains")
            .never("contains", "contains")
            .build();
        let mut b = ModeTable::builder(s.clone(), spec, Phi::modulo(2));
        let site = b.add_site(SymbolicSet::new(vec![SymOp::new(
            s.method("add"),
            vec![SymArg::Var(0)],
        )]));
        let t = b.build();
        let m = t.select(site, &[Value(1)]);
        (t, m)
    }

    #[test]
    fn two_party_cycle_detected() {
        let (t, m) = exclusive_table();
        let wd = Watchdog::default();
        // txn 1 holds instance 100, waits on 200; txn 2 holds 200, waits
        // on 100 — a classic two-party deadlock.
        wd.register(1, 200, m, t.clone(), vec![(100, m)]);
        wd.register(2, 100, m, t.clone(), vec![(200, m)]);
        let c1 = wd.cycle_through(1).expect("cycle through txn 1");
        let c2 = wd.cycle_through(2).expect("cycle through txn 2");
        assert_eq!(c1, vec![1, 2]);
        assert_eq!(c2, vec![1, 2]);
        wd.deregister(2);
        assert!(wd.cycle_through(1).is_none(), "cycle gone after deregister");
    }

    #[test]
    fn no_cycle_without_conflicting_hold() {
        let (t, m) = exclusive_table();
        let wd = Watchdog::default();
        // txn 1 waits on 200 but txn 2 holds nothing relevant.
        wd.register(1, 200, m, t.clone(), vec![(100, m)]);
        wd.register(2, 100, m, t.clone(), vec![(300, m)]);
        assert!(wd.cycle_through(1).is_none());
        assert_eq!(wd.waiting(), 2);
    }

    #[test]
    fn three_party_cycle_detected() {
        let (t, m) = exclusive_table();
        let wd = Watchdog::default();
        wd.register(1, 20, m, t.clone(), vec![(10, m)]);
        wd.register(2, 30, m, t.clone(), vec![(20, m)]);
        wd.register(3, 10, m, t.clone(), vec![(30, m)]);
        assert_eq!(wd.cycle_through(3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn unregistered_txn_has_no_cycle() {
        let wd = Watchdog::default();
        assert!(wd.cycle_through(42).is_none());
    }
}
