//! Contention telemetry: per-site counters you can leave on, and an
//! opt-in event trace.
//!
//! The layer answers *which modes block which, how often and for how
//! long* at every acquisition boundary of the semantic-lock runtime —
//! admission, release, timeout, poison rejection, deadlock abort — keyed by
//! the locking mode and, when the acquisition came from compiler-inserted
//! code, the **stable lock-site id** the `synth` crate stamped on the
//! `LS(l)` site, so contention attributes back to IR source lines.
//!
//! ## Two levels behind one gate
//!
//! One process-global word ([`level`]) selects what is recorded:
//!
//! * [`Level::Off`] — nothing. Every entry point in [`crate::manager`] /
//!   [`crate::txn`] pays one relaxed load and one branch.
//! * [`Level::Counters`] ([`set_enabled`]`(true)`) — **aggregation in
//!   place**. Each recording thread owns an insert-only table keyed
//!   `(site, mode)` whose cells are plain words only that thread writes
//!   (a relaxed load and a relaxed store, never an RMW), plus a
//!   `(requested, held)` conflict-pair table touched only when an
//!   admission is refused. An acquisition admitted on its first try bumps
//!   two words of one cache line; a release bumps one. It reads no clock,
//!   allocates nothing, builds no [`Event`], and writes no line another
//!   thread reads; the clock is first read after the first refusal.
//!   [`Metrics::collect`] sums the registered tables without blocking any
//!   writer, so its per-site counts, histograms and conflict matrix are
//!   **exact for the whole run** — nothing is sampled and nothing wraps. A
//!   key that does not fit a thread's table is counted in
//!   [`Metrics::overflow`], never lost silently.
//! * [`Level::Trace`] — the counters **plus** the full event stream:
//!   every boundary also appends an [`Event`] to a per-thread ring of
//!   seqlock slots ([`RING_CAPACITY`] events, allocated at a thread's
//!   first traced event). A ring that wraps overwrites its oldest events
//!   and counts them in [`Metrics::trace_dropped`]; recording never
//!   blocks. [`snapshot`] / [`chrome_trace`] / [`check_balanced`] read
//!   the rings, and the test suites use the balanced stream as an oracle.
//!
//! At every level the runtime admits exactly as it does with telemetry
//! off and *then* records the outcome: holders are sampled and the clock
//! is read only after a refusal, so `MechStats`, timing and retry
//! behaviour do not depend on the level.
//!
//! The cells order nothing — no reader acts on a count, and a torn sum is
//! only ever a sum of values each cell really held — which is why they are
//! relaxed and carry no row in [`crate::mech::ORDERING_AUDIT`].
//!
//! ## Event balance invariant (trace level)
//!
//! For every `(txn, instance, mode, site)` key, the stream satisfies
//! `AcquireStart count == Admit + Timeout + PoisonRejected + CycleAborted`
//! and `Release count == Admit count` — every acquisition that starts ends
//! in exactly one terminal, and only admitted acquisitions release.
//! [`check_balanced`] verifies this; the property suite runs it over chaos
//! and interpreter workloads. [`EventKind::Blocked`] (a conflict
//! observation used for the conflict-pair matrix) and
//! [`EventKind::UnlockUnderflow`] (a refused double release) sit outside
//! the invariant. [`Metrics::from_events`] aggregates a stream the way
//! the counters aggregate in place; the differential suite holds the two
//! equal.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sentinel site id for acquisitions not attributable to a compiler-
/// inserted lock site (hand-written runtime calls, tests).
pub const SITE_NONE: u32 = u32::MAX;

/// Sentinel mode value for events without a secondary mode.
pub const MODE_NONE: u32 = u32::MAX;

/// Events a thread's trace ring retains before it wraps and the oldest
/// are dropped (counted, never blocking the writer).
pub const RING_CAPACITY: usize = 1 << 14;

// ---------------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------------

/// What the telemetry layer records (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum Level {
    /// Nothing.
    Off = 0,
    /// Per-thread in-place counters: exact, cheap enough to leave on.
    Counters = 1,
    /// The counters plus the per-thread event rings.
    Trace = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// The recording level. One relaxed atomic load — with the branch on it,
/// the whole disabled-path cost at every entry point.
#[inline(always)]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        _ => Level::Trace,
    }
}

/// Is anything being recorded ([`level`] above [`Level::Off`])?
#[inline(always)]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != Level::Off as u8
}

/// Set the recording level process-wide.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::SeqCst);
}

/// Turn the counters on ([`Level::Counters`]) or everything off.
pub fn set_enabled(on: bool) {
    set_level(if on { Level::Counters } else { Level::Off });
}

/// Turn the counters on ([`set_enabled`]`(true)`).
pub fn enable() {
    set_enabled(true);
}

/// Turn recording off ([`set_enabled`]`(false)`).
pub fn disable() {
    set_enabled(false);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the telemetry epoch (first use in this process).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Retry / overload counters
// ---------------------------------------------------------------------------
//
// Unlike the event rings these are *always on*: they are four relaxed
// increments on paths that already paid for an abort or a shed, so there
// is no hot-path cost to gate. They deliberately stay out of the packed
// ring-event encoding (`EventKind` is bit-packed into ring words and
// consumed by `check_balanced`; retries span *multiple* balanced
// transactions, one per attempt, so they are a different axis).

static RETRIES: AtomicU64 = AtomicU64::new(0);
static ESCALATIONS: AtomicU64 = AtomicU64::new(0);
static SHEDS: AtomicU64 = AtomicU64::new(0);
static EXHAUSTED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide retry/overload counters (see
/// [`retry_counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Aborted attempts that were re-executed (each backoff or escalated
    /// re-run counts once).
    pub retries: u64,
    /// Transactions that aged into the escalated pessimistic path.
    pub escalations: u64,
    /// Requests shed by an [`crate::retry::AdmissionThrottle`].
    pub sheds: u64,
    /// Logical transactions that exhausted a retry budget and surfaced
    /// their final error.
    pub exhausted: u64,
}

/// Count one retried attempt.
#[inline]
pub fn count_retry() {
    RETRIES.fetch_add(1, Ordering::Relaxed);
}

/// Count one escalation (a transaction's *first* transition only).
#[inline]
pub fn count_escalation() {
    ESCALATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Count one shed admission.
#[inline]
pub fn count_shed() {
    SHEDS.fetch_add(1, Ordering::Relaxed);
}

/// Count one budget-exhausted transaction.
#[inline]
pub fn count_exhausted() {
    EXHAUSTED.fetch_add(1, Ordering::Relaxed);
}

/// Read the retry/overload counters.
pub fn retry_counters() -> RetryCounters {
    RetryCounters {
        retries: RETRIES.load(Ordering::Relaxed),
        escalations: ESCALATIONS.load(Ordering::Relaxed),
        sheds: SHEDS.load(Ordering::Relaxed),
        exhausted: EXHAUSTED.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// What happened at an acquisition boundary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum EventKind {
    /// A transaction asked for a mode (before any admission check).
    AcquireStart = 0,
    /// The mode was admitted (terminal of a successful acquisition).
    Admit = 1,
    /// An admitted mode was released.
    Release = 2,
    /// A bounded acquisition gave up at its deadline (terminal).
    Timeout = 3,
    /// The acquisition was rejected because the instance is poisoned
    /// (terminal; `cause` says whether before or after admission).
    PoisonRejected = 4,
    /// The deadlock watchdog aborted this acquisition (terminal); the
    /// cycle membership is in the matching [`CycleRecord`].
    CycleAborted = 5,
    /// Conflict observation: at acquire time some conflicting mode
    /// (`other_mode`) was held. Feeds the conflict-pair matrix; not part
    /// of the balance invariant.
    Blocked = 6,
    /// A release was refused because the hold counter would underflow
    /// (double unlock). The instance is poisoned by the caller.
    UnlockUnderflow = 7,
}

impl EventKind {
    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::AcquireStart,
            1 => EventKind::Admit,
            2 => EventKind::Release,
            3 => EventKind::Timeout,
            4 => EventKind::PoisonRejected,
            5 => EventKind::CycleAborted,
            6 => EventKind::Blocked,
            7 => EventKind::UnlockUnderflow,
            _ => return None,
        })
    }

    /// Short lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::AcquireStart => "acquire",
            EventKind::Admit => "admit",
            EventKind::Release => "release",
            EventKind::Timeout => "timeout",
            EventKind::PoisonRejected => "poison",
            EventKind::CycleAborted => "cycle_abort",
            EventKind::Blocked => "blocked",
            EventKind::UnlockUnderflow => "unlock_underflow",
        }
    }
}

/// Why (or whether) an acquisition waited.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum WaitCause {
    /// Not applicable (releases, underflow reports).
    None = 0,
    /// Admitted without observing any conflicting hold.
    Uncontended = 1,
    /// Blocked on (or rejected by) a conflicting hold.
    Conflict = 2,
    /// Rejected by instance poisoning.
    Poison = 3,
    /// Aborted by the deadlock watchdog.
    Deadlock = 4,
}

impl WaitCause {
    fn from_u8(v: u8) -> Option<WaitCause> {
        Some(match v {
            0 => WaitCause::None,
            1 => WaitCause::Uncontended,
            2 => WaitCause::Conflict,
            3 => WaitCause::Poison,
            4 => WaitCause::Deadlock,
            _ => return None,
        })
    }

    /// Does a terminal with this cause count as contended (it waited on,
    /// or was aborted over, a conflicting hold)?
    pub fn is_contended(self) -> bool {
        matches!(self, WaitCause::Conflict | WaitCause::Deadlock)
    }

    /// Short lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            WaitCause::None => "none",
            WaitCause::Uncontended => "uncontended",
            WaitCause::Conflict => "conflict",
            WaitCause::Poison => "poison",
            WaitCause::Deadlock => "deadlock",
        }
    }
}

/// One recorded lock-site event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Why the acquisition waited (or [`WaitCause::None`]).
    pub cause: WaitCause,
    /// Telemetry-local id of the recording thread.
    pub thread: u32,
    /// Transaction id ([`crate::txn::Txn::id`]); 0 when no transaction
    /// context was stamped.
    pub txn: u64,
    /// ADT instance id ([`crate::manager::SemLock::unique`]).
    pub instance: u64,
    /// The requested/held canonical mode id.
    pub mode: u32,
    /// Secondary mode ([`MODE_NONE`] unless `kind` is
    /// [`EventKind::Blocked`], where it is the conflicting held mode).
    pub other_mode: u32,
    /// Stable compiler-stamped lock-site id, or [`SITE_NONE`].
    pub site: u32,
    /// Nanoseconds since the telemetry epoch.
    pub t_ns: u64,
    /// For terminal events: nanoseconds spent waiting since acquire start.
    pub wait_ns: u64,
}

// ---------------------------------------------------------------------------
// Thread-local state: acquisition context and the thread's recorder
// ---------------------------------------------------------------------------

thread_local! {
    // Separate `Cell`s read and written through `LocalKey::get` / `set` /
    // `replace`: each access is a closure small enough to inline down to
    // one `%fs`-relative move. A struct reached through `with` and a large
    // closure was measured at one indirect call per access instead.
    static TXN: Cell<u64> = const { Cell::new(0) };
    static SITE: Cell<u32> = const { Cell::new(SITE_NONE) };
    /// This thread's recorder: created, leaked and registered at its
    /// first recorded boundary; it outlives the thread so
    /// [`Metrics::collect`] still counts what an exited thread did.
    static RECORDER: Cell<Option<&'static Recorder>> = const { Cell::new(None) };
    /// The `(site, mode)` entry this thread counted in last: a release
    /// finds the cell its acquisition just used without a table probe.
    static LAST_SITE: Cell<Option<&'static Entry<SiteCell>>> = const { Cell::new(None) };
}

#[inline]
fn recorder() -> &'static Recorder {
    #[cold]
    fn register() -> &'static Recorder {
        let rec: &'static Recorder = Box::leak(Box::new(Recorder::new()));
        registry().lock().push(rec);
        RECORDER.set(Some(rec));
        rec
    }
    match RECORDER.get() {
        Some(rec) => rec,
        None => register(),
    }
}

/// The calling thread's counters for `(site, mode)`; `None` when its
/// table has no room for the key (counted as overflow).
#[inline]
fn site_cell(site: u32, mode: u32) -> Option<&'static SiteCell> {
    let key = pack_key(site, mode);
    match LAST_SITE.get() {
        Some(entry) if entry.key == key => Some(&entry.cell),
        _ => {
            let entry = recorder().sites.entry(key)?;
            LAST_SITE.set(Some(entry));
            Some(&entry.cell)
        }
    }
}

/// Stamp the transaction id and lock-site id for the next acquisition or
/// release performed by this thread. The site is consumed (reset to
/// [`SITE_NONE`]) by the runtime entry point that records it, so it
/// cannot leak onto an unrelated later acquisition.
#[inline]
pub fn set_context(txn: u64, site: u32) {
    TXN.set(txn);
    SITE.set(site);
}

/// Stamp only the transaction id (keeps any pending site).
#[inline]
pub fn set_txn(txn: u64) {
    TXN.set(txn);
}

/// Stamp only the pending lock-site id (keeps the transaction id).
#[inline]
pub fn set_site(site: u32) {
    SITE.set(site);
}

/// Read the pending context `(txn, site)` without consuming it.
#[inline]
pub fn context() -> (u64, u32) {
    (TXN.get(), SITE.get())
}

// ---------------------------------------------------------------------------
// Counter tier: per-thread insert-only tables of single-writer cells
// ---------------------------------------------------------------------------

/// `(site, mode)` keys one thread's table holds. A synthesized program
/// has tens of lock sites and at most a few hundred modes per class; the
/// benchmark's widest workload uses 64 keys.
const SITE_SLOTS: usize = 1 << 12;

/// `(requested, held)` mode pairs one thread's table holds.
const PAIR_SLOTS: usize = 1 << 10;

/// Slots a lookup examines before it gives the key up as overflow.
const PROBE_LIMIT: usize = 16;

/// Add to a cell only the calling thread writes: a relaxed load and a
/// relaxed store, no RMW. Readers on other threads see some value the
/// cell really held.
#[inline(always)]
fn bump(cell: &AtomicU64, by: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

fn pack_key(hi: u32, lo: u32) -> u64 {
    (u64::from(hi) << 32) | u64::from(lo)
}

fn unpack_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// A key and its counters, on a cache line of their own: the key sits
/// in front of the first (hot) words of the cell, and no other thread's
/// entry shares a line the owner writes.
#[repr(C, align(64))]
struct Entry<C> {
    key: u64,
    cell: C,
}

/// An open-addressed, insert-only table from a packed key to a cell of
/// counters. One thread inserts and writes; any thread may read while it
/// does. Entries are boxed so an empty table is a slice of empty
/// [`OnceLock`]s and a cell is allocated when its key first shows up.
struct Table<C> {
    slots: Box<[OnceLock<Box<Entry<C>>>]>,
    /// Boundaries whose key found no slot within [`PROBE_LIMIT`].
    overflow: AtomicU64,
}

impl<C: Default> Table<C> {
    fn new(slots: usize) -> Table<C> {
        assert!(slots.is_power_of_two());
        Table {
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
            overflow: AtomicU64::new(0),
        }
    }

    /// The entry of `key`, inserted if absent; `None` (and one more
    /// overflow) when the probe window is taken by other keys. **Owning
    /// thread only.**
    #[inline]
    fn entry(&self, key: u64) -> Option<&Entry<C>> {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: site ids are FNV hashes but mode ids are
        // small consecutive integers.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        for _ in 0..PROBE_LIMIT {
            let entry = self.slots[i].get_or_init(|| {
                Box::new(Entry {
                    key,
                    cell: C::default(),
                })
            });
            if entry.key == key {
                return Some(entry);
            }
            i = (i + 1) & mask;
        }
        bump(&self.overflow, 1);
        None
    }

    fn cell(&self, key: u64) -> Option<&C> {
        self.entry(key).map(|entry| &entry.cell)
    }

    fn entries(&self) -> impl Iterator<Item = (u64, &C)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.get().map(|entry| (entry.key, &entry.cell)))
    }
}

/// The counters of one `(site, mode)` key on one thread. The first
/// cache line (with the key in front of it in the boxed entry) holds what
/// an uncontended acquire/release touches — `admits`, the zero-wait
/// histogram bucket, `releases` — and the wait totals; the rest of the
/// histogram and the rare terminals follow.
#[derive(Default)]
#[repr(C)]
struct SiteCell {
    admits: AtomicU64,
    releases: AtomicU64,
    contended: AtomicU64,
    total_wait_ns: AtomicU64,
    max_wait_ns: AtomicU64,
    wait_hist: [AtomicU64; WAIT_BUCKETS],
    timeouts: AtomicU64,
    poison_rejects: AtomicU64,
    cycle_aborts: AtomicU64,
}

impl SiteCell {
    /// Count one terminal. Acquire starts are not stored: every
    /// acquisition ends in exactly one terminal, so they are the sum of
    /// the four terminal counts. Inlined so that the first-try admission
    /// ([`report`]) folds to its two increments, and branching rather
    /// than dispatching on `kind` — an indirect jump costs more here than
    /// everything else the counter level does.
    #[inline(always)]
    fn count_terminal(&self, kind: EventKind, cause: WaitCause, wait_ns: u64) {
        let terminal = if kind == EventKind::Admit {
            &self.admits
        } else if kind == EventKind::Timeout {
            &self.timeouts
        } else if kind == EventKind::PoisonRejected {
            &self.poison_rejects
        } else {
            debug_assert_eq!(kind, EventKind::CycleAborted, "not a terminal");
            &self.cycle_aborts
        };
        bump(terminal, 1);
        bump(&self.wait_hist[wait_bucket(wait_ns)], 1);
        if cause.is_contended() {
            bump(&self.contended, 1);
        }
        if wait_ns > 0 {
            bump(&self.total_wait_ns, wait_ns);
            if wait_ns > self.max_wait_ns.load(Ordering::Relaxed) {
                self.max_wait_ns.store(wait_ns, Ordering::Relaxed);
            }
        }
    }

    fn read(&self) -> SiteStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut s = SiteStats {
            admits: get(&self.admits),
            releases: get(&self.releases),
            timeouts: get(&self.timeouts),
            poison_rejects: get(&self.poison_rejects),
            cycle_aborts: get(&self.cycle_aborts),
            contended: get(&self.contended),
            total_wait_ns: get(&self.total_wait_ns),
            max_wait_ns: get(&self.max_wait_ns),
            ..SiteStats::default()
        };
        s.acquires = s.admits + s.timeouts + s.poison_rejects + s.cycle_aborts;
        for (dst, src) in s.wait_hist.iter_mut().zip(&self.wait_hist) {
            *dst = get(src);
        }
        s
    }

    /// Zero every counter ([`reset`]; requires quiescence).
    fn clear(&self) {
        let scalars = [
            &self.admits,
            &self.releases,
            &self.contended,
            &self.total_wait_ns,
            &self.max_wait_ns,
            &self.timeouts,
            &self.poison_rejects,
            &self.cycle_aborts,
        ];
        for c in scalars.into_iter().chain(&self.wait_hist) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// What one thread has recorded: its counter tables and, once it has
/// traced an event, its ring.
struct Recorder {
    /// Telemetry-local thread id ([`Event::thread`]).
    thread: u32,
    sites: Table<SiteCell>,
    pairs: Table<AtomicU64>,
    unlock_underflows: AtomicU64,
    ring: OnceLock<Ring>,
}

impl Recorder {
    fn new() -> Recorder {
        static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
        Recorder {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            sites: Table::new(SITE_SLOTS),
            pairs: Table::new(PAIR_SLOTS),
            unlock_underflows: AtomicU64::new(0),
            ring: OnceLock::new(),
        }
    }

    /// Append one event to this thread's ring (trace level only).
    fn trace(&self, ev: Event) {
        self.ring.get_or_init(Ring::new).push(&Event {
            thread: self.thread,
            ..ev
        });
    }
}

fn registry() -> &'static Mutex<Vec<&'static Recorder>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Recorder>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Every recorder registered so far. The registry lock is held for the
/// copy only — a thread recording its first boundary waits for that, a
/// thread already recording never does.
fn recorders() -> Vec<&'static Recorder> {
    registry().lock().clone()
}

// ---------------------------------------------------------------------------
// Recording: what the runtime entry points call
// ---------------------------------------------------------------------------

/// One acquisition, from its entry point to its terminal, as the
/// telemetry layer follows it. The runtime admits first and reports
/// afterwards: [`Acquisition::refused`] / [`Acquisition::blocked_by`]
/// after a refused admit try, [`Acquisition::finish`] with the terminal.
/// An acquisition that never waits is [`report`]ed in one call, which at
/// [`Level::Counters`] reads no clock.
pub(crate) struct Acquisition {
    trace: bool,
    instance: u64,
    mode: u32,
    site: u32,
    txn: u64,
    /// The first clock reading: the refusal that started the wait, or
    /// (trace level) the stamp of an event already emitted.
    t0: Option<u64>,
    /// [`Acquisition::refused`] ran: the terminal's wait counts from `t0`.
    waited: bool,
    /// Trace level: `AcquireStart` is already in the ring.
    started: bool,
}

impl Acquisition {
    /// Start following an acquisition of `mode` on `instance`; `None`
    /// with telemetry off. Consumes the pending site of the thread
    /// context; `txn` overrides the context's transaction id.
    #[inline]
    pub(crate) fn begin(instance: u64, mode: u32, txn: Option<u64>) -> Option<Acquisition> {
        match level() {
            Level::Off => None,
            level => Some(Acquisition::begin_at(level, instance, mode, txn)),
        }
    }

    fn begin_at(level: Level, instance: u64, mode: u32, txn: Option<u64>) -> Acquisition {
        Acquisition {
            trace: level == Level::Trace,
            instance,
            mode,
            site: SITE.replace(SITE_NONE),
            txn: txn.unwrap_or_else(|| TXN.get()),
            t0: None,
            waited: false,
            started: false,
        }
    }

    /// The lock-site id this acquisition is attributed to.
    pub(crate) fn site(&self) -> u32 {
        self.site
    }

    fn event(&self, t_ns: u64, kind: EventKind, cause: WaitCause, other_mode: u32) -> Event {
        Event {
            kind,
            cause,
            thread: 0,
            txn: self.txn,
            instance: self.instance,
            mode: self.mode,
            other_mode,
            site: self.site,
            t_ns,
            wait_ns: 0,
        }
    }

    /// The first clock reading of this acquisition, taken now if none was.
    fn stamp(&mut self) -> u64 {
        *self.t0.get_or_insert_with(now_ns)
    }

    /// Trace level: put `AcquireStart` in the ring unless it is there.
    fn trace_start(&mut self, rec: &Recorder) {
        if !std::mem::replace(&mut self.started, true) {
            let t = self.stamp();
            rec.trace(self.event(t, EventKind::AcquireStart, WaitCause::None, MODE_NONE));
        }
    }

    /// The first admit try was refused and the acquisition now waits:
    /// start the wait clock.
    pub(crate) fn refused(&mut self) {
        self.waited = true;
        self.stamp();
    }

    /// A conflicting mode was seen held after a refusal: one observation
    /// for the conflict-pair matrix.
    pub(crate) fn blocked_by(&mut self, held_mode: u32) {
        let rec = recorder();
        if let Some(n) = rec.pairs.cell(pack_key(self.mode, held_mode)) {
            bump(n, 1);
        }
        if self.trace {
            self.trace_start(rec);
            let t = self.stamp();
            rec.trace(self.event(t, EventKind::Blocked, WaitCause::Conflict, held_mode));
        }
    }

    /// The acquisition ended in `kind` ([`EventKind::Admit`],
    /// [`EventKind::Timeout`], [`EventKind::PoisonRejected`] or
    /// [`EventKind::CycleAborted`]).
    pub(crate) fn finish(mut self, kind: EventKind) {
        let cause = match kind {
            EventKind::Admit if self.waited => WaitCause::Conflict,
            EventKind::Admit => WaitCause::Uncontended,
            EventKind::Timeout => WaitCause::Conflict,
            EventKind::CycleAborted => WaitCause::Deadlock,
            _ => WaitCause::Poison,
        };
        let (t_ns, wait_ns) = match self.t0 {
            Some(t0) if self.waited => {
                let t1 = now_ns();
                (t1, t1.saturating_sub(t0))
            }
            _ if self.trace => (self.stamp(), 0),
            _ => (0, 0),
        };
        if let Some(cell) = site_cell(self.site, self.mode) {
            cell.count_terminal(kind, cause, wait_ns);
        }
        if self.trace {
            let rec = recorder();
            self.trace_start(rec);
            rec.trace(Event {
                wait_ns,
                ..self.event(t_ns, kind, cause, MODE_NONE)
            });
        }
    }
}

/// Report an acquisition that never waited — admitted on its first try,
/// or rejected as poisoned — in one call: `begin` and `finish` with
/// nothing in between. With telemetry off, one relaxed load and a branch
/// over one out-of-line call; a first-try admission at
/// [`Level::Counters`] is two increments in the thread's own cell.
#[inline(always)]
pub(crate) fn report(instance: u64, mode: u32, txn: Option<u64>, kind: EventKind) {
    #[inline(never)]
    fn report_at(level: Level, instance: u64, mode: u32, txn: Option<u64>, kind: EventKind) {
        if level == Level::Counters && kind == EventKind::Admit {
            if let Some(cell) = site_cell(SITE.replace(SITE_NONE), mode) {
                cell.count_terminal(EventKind::Admit, WaitCause::Uncontended, 0);
            }
        } else {
            generic(level, instance, mode, txn, kind);
        }
    }
    // Kept out of `report_at`: the `Acquisition` it builds would cost the
    // two-increment path its registers (measured: 89 → 107 ns per
    // `cia_telemetry` operation when first-try admissions take it).
    #[inline(never)]
    fn generic(level: Level, instance: u64, mode: u32, txn: Option<u64>, kind: EventKind) {
        Acquisition::begin_at(level, instance, mode, txn).finish(kind);
    }
    match level() {
        Level::Off => {}
        level => report_at(level, instance, mode, txn, kind),
    }
}

/// One release as the telemetry layer follows it: begun before the
/// mechanism is called, finished with what the mechanism said.
pub(crate) struct Release {
    /// Trace level: the clock, read while the mode is still held so that
    /// a hold never appears to outlast the next conflicting admission.
    t_ns: Option<u64>,
}

impl Release {
    /// Start following a release; `None` with telemetry off — one relaxed
    /// load and a branch.
    #[inline(always)]
    pub(crate) fn begin() -> Option<Release> {
        match level() {
            Level::Off => None,
            Level::Counters => Some(Release { t_ns: None }),
            Level::Trace => Some(Release {
                t_ns: Some(now_ns()),
            }),
        }
    }

    /// The mechanism released `mode` on `instance` or (`underflow`)
    /// refused a double release. Consumes the pending site of the thread
    /// context. A plain release at [`Level::Counters`] is one increment
    /// in the thread's own cell.
    #[inline(never)]
    pub(crate) fn finish(self, instance: u64, mode: u32, underflow: bool) {
        let site = SITE.replace(SITE_NONE);
        if underflow {
            bump(&recorder().unlock_underflows, 1);
        } else if let Some(cell) = site_cell(site, mode) {
            bump(&cell.releases, 1);
        }
        if let Some(t_ns) = self.t_ns {
            recorder().trace(Event {
                kind: if underflow {
                    EventKind::UnlockUnderflow
                } else {
                    EventKind::Release
                },
                cause: WaitCause::None,
                thread: 0,
                txn: TXN.get(),
                instance,
                mode,
                other_mode: MODE_NONE,
                site,
                t_ns,
                wait_ns: 0,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Trace tier: per-thread seqlock rings
// ---------------------------------------------------------------------------

/// One ring slot: a seqlock sequence word plus the packed event words.
/// The sequence is odd while the (single) writer is mid-update; readers
/// retry/discard on a torn read. Atomics are used for the data words so
/// concurrent reads are defined behaviour — there is no ordering
/// requirement beyond the seq brackets.
struct Slot {
    seq: AtomicU32,
    words: [AtomicU64; 7],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU32::new(0),
            words: Default::default(),
        }
    }
}

fn pack(ev: &Event) -> [u64; 7] {
    [
        (ev.kind as u64) | ((ev.cause as u64) << 8) | ((ev.thread as u64) << 32),
        (ev.mode as u64) | ((ev.other_mode as u64) << 32),
        ev.site as u64,
        ev.txn,
        ev.instance,
        ev.t_ns,
        ev.wait_ns,
    ]
}

fn unpack(w: &[u64; 7]) -> Option<Event> {
    Some(Event {
        kind: EventKind::from_u8((w[0] & 0xff) as u8)?,
        cause: WaitCause::from_u8(((w[0] >> 8) & 0xff) as u8)?,
        thread: (w[0] >> 32) as u32,
        mode: w[1] as u32,
        other_mode: (w[1] >> 32) as u32,
        site: w[2] as u32,
        txn: w[3],
        instance: w[4],
        t_ns: w[5],
        wait_ns: w[6],
    })
}

/// One thread's event ring. `head` counts events ever written by the
/// thread; slot `head % RING_CAPACITY` is the next write position.
struct Ring {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
        }
    }

    /// Single-writer append ([`reset`] is the only other head writer, and
    /// it requires quiescence).
    fn push(&self, ev: &Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) % self.slots.len()];
        let s = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(s.wrapping_add(1), Ordering::Release);
        let packed = pack(ev);
        for (w, v) in slot.words.iter().zip(packed) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(s.wrapping_add(2), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// `(retained, dropped)`: events still in the ring and events it
    /// overwrote since the last [`reset`].
    fn occupancy(&self) -> (u64, u64) {
        let h = self.head.load(Ordering::Acquire);
        let dropped = h.saturating_sub(self.slots.len() as u64);
        (h - dropped, dropped)
    }

    /// Read every retained event in write order, skipping torn slots.
    fn drain_into(&self, out: &mut Vec<Event>) -> u64 {
        let (retained, dropped) = self.occupancy();
        for i in dropped..dropped + retained {
            let slot = &self.slots[(i as usize) % self.slots.len()];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                continue;
            }
            let mut w = [0u64; 7];
            for (dst, src) in w.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue;
            }
            if let Some(ev) = unpack(&w) {
                out.push(ev);
            }
        }
        dropped
    }
}

/// Snapshot every thread's retained trace events, merged and sorted by
/// timestamp. Returns `(events, dropped)` where `dropped` counts events
/// lost to ring wrap-around since the last [`reset`]. Empty unless some
/// thread recorded at [`Level::Trace`].
///
/// Safe to call concurrently with writers (torn slots are discarded), but
/// a consistent, complete stream — e.g. for [`check_balanced`] — requires
/// the recording threads to be quiescent.
pub fn snapshot() -> (Vec<Event>, u64) {
    let mut out = Vec::new();
    let mut dropped = 0;
    for ring in recorders().iter().filter_map(|rec| rec.ring.get()) {
        dropped += ring.drain_into(&mut out);
    }
    out.sort_by_key(|e| e.t_ns);
    (out, dropped)
}

/// Zero every counter and discard all trace events and cycle records.
/// **Requires quiescence**: no thread may be concurrently recording (this
/// is the one place a thread writes another thread's cells and ring
/// head).
pub fn reset() {
    for rec in recorders() {
        for (_, cell) in rec.sites.entries() {
            cell.clear();
        }
        for (_, n) in rec.pairs.entries() {
            n.store(0, Ordering::Relaxed);
        }
        for c in [
            &rec.sites.overflow,
            &rec.pairs.overflow,
            &rec.unlock_underflows,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        if let Some(ring) = rec.ring.get() {
            ring.head.store(0, Ordering::SeqCst);
        }
    }
    cycles_store().lock().clear();
    for c in [&RETRIES, &ESCALATIONS, &SHEDS, &EXHAUSTED] {
        c.store(0, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------------
// Cycle records (variable-length; rare, so a plain mutexed vec suffices)
// ---------------------------------------------------------------------------

/// A watchdog-detected waits-for cycle converted into an abort. Ring
/// events are fixed-size, so the variable-length member list lives here;
/// the matching ring event is the [`EventKind::CycleAborted`] terminal
/// with the same `(txn, instance, mode)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleRecord {
    /// The aborted (youngest) transaction.
    pub txn: u64,
    /// Instance the aborted transaction was waiting on.
    pub instance: u64,
    /// The requested mode.
    pub mode: u32,
    /// Stable lock-site id of the aborted acquisition, or [`SITE_NONE`].
    pub site: u32,
    /// Sorted transaction ids of the detected cycle (the
    /// [`crate::error::LockError::WouldDeadlock`] payload).
    pub members: Vec<u64>,
    /// Nanoseconds since the telemetry epoch.
    pub t_ns: u64,
}

fn cycles_store() -> &'static Mutex<Vec<CycleRecord>> {
    static CYCLES: OnceLock<Mutex<Vec<CycleRecord>>> = OnceLock::new();
    CYCLES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Record a deadlock-cycle abort (called by the watchdog path; caller must
/// have checked [`enabled`]).
pub fn record_cycle(txn: u64, instance: u64, mode: u32, site: u32, members: &[u64]) {
    cycles_store().lock().push(CycleRecord {
        txn,
        instance,
        mode,
        site,
        members: members.to_vec(),
        t_ns: now_ns(),
    });
}

/// All cycle records since the last [`reset`].
pub fn cycles() -> Vec<CycleRecord> {
    cycles_store().lock().clone()
}

// ---------------------------------------------------------------------------
// Balance checking
// ---------------------------------------------------------------------------

/// Verify the event-balance invariant over a quiescent snapshot: per
/// `(txn, instance, mode, site)`, acquire starts equal terminals
/// (admit/timeout/poison/cycle-abort) and releases equal admits.
pub fn check_balanced(events: &[Event]) -> Result<(), String> {
    #[derive(Default)]
    struct Counts {
        starts: u64,
        admits: u64,
        releases: u64,
        timeouts: u64,
        poisons: u64,
        aborts: u64,
    }
    let mut per_key: BTreeMap<(u64, u64, u32, u32), Counts> = BTreeMap::new();
    for ev in events {
        let c = per_key
            .entry((ev.txn, ev.instance, ev.mode, ev.site))
            .or_default();
        match ev.kind {
            EventKind::AcquireStart => c.starts += 1,
            EventKind::Admit => c.admits += 1,
            EventKind::Release => c.releases += 1,
            EventKind::Timeout => c.timeouts += 1,
            EventKind::PoisonRejected => c.poisons += 1,
            EventKind::CycleAborted => c.aborts += 1,
            EventKind::Blocked | EventKind::UnlockUnderflow => {}
        }
    }
    for (key, c) in &per_key {
        let terminals = c.admits + c.timeouts + c.poisons + c.aborts;
        if c.starts != terminals {
            return Err(format!(
                "unbalanced acquisitions for (txn={}, instance={}, mode={}, site={}): \
                 {} starts vs {} terminals ({} admits, {} timeouts, {} poisons, {} aborts)",
                key.0,
                key.1,
                key.2,
                key.3,
                c.starts,
                terminals,
                c.admits,
                c.timeouts,
                c.poisons,
                c.aborts
            ));
        }
        if c.releases != c.admits {
            return Err(format!(
                "unbalanced releases for (txn={}, instance={}, mode={}, site={}): \
                 {} releases vs {} admits",
                key.0, key.1, key.2, key.3, c.releases, c.admits
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Aggregated metrics
// ---------------------------------------------------------------------------

/// Number of log2 wait-time histogram buckets (bucket `i` holds waits in
/// `[2^(i-1), 2^i)` ns; bucket 0 holds zero-wait admissions).
pub const WAIT_BUCKETS: usize = 32;

/// The log2 histogram bucket for a wait of `ns` nanoseconds.
pub fn wait_bucket(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(WAIT_BUCKETS - 1)
    }
}

/// Aggregated contention statistics for one `(site, mode)` pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Acquire starts.
    pub acquires: u64,
    /// Successful admissions.
    pub admits: u64,
    /// Releases.
    pub releases: u64,
    /// Deadline expiries.
    pub timeouts: u64,
    /// Poison rejections.
    pub poison_rejects: u64,
    /// Deadlock-cycle aborts.
    pub cycle_aborts: u64,
    /// Terminals whose cause was a conflicting hold.
    pub contended: u64,
    /// Total nanoseconds spent waiting across all terminals.
    pub total_wait_ns: u64,
    /// Maximum single wait in nanoseconds.
    pub max_wait_ns: u64,
    /// Log2 wait-time histogram over terminals (see [`wait_bucket`]).
    pub wait_hist: [u64; WAIT_BUCKETS],
}

impl SiteStats {
    fn absorb(&mut self, other: &SiteStats) {
        self.acquires += other.acquires;
        self.admits += other.admits;
        self.releases += other.releases;
        self.timeouts += other.timeouts;
        self.poison_rejects += other.poison_rejects;
        self.cycle_aborts += other.cycle_aborts;
        self.contended += other.contended;
        self.total_wait_ns += other.total_wait_ns;
        self.max_wait_ns = self.max_wait_ns.max(other.max_wait_ns);
        for (dst, src) in self.wait_hist.iter_mut().zip(&other.wait_hist) {
            *dst += src;
        }
    }
}

/// Aggregated contention statistics: per-site/mode metrics, the
/// conflict-pair matrix and the cycle records.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Per `(site, mode)` statistics (site [`SITE_NONE`] collects
    /// acquisitions with no compiler-stamped site).
    pub per_site: BTreeMap<(u32, u32), SiteStats>,
    /// Conflict-pair matrix: `(requested mode, conflicting held mode)` →
    /// number of times the held mode was seen after a refusal.
    pub conflict_pairs: BTreeMap<(u32, u32), u64>,
    /// Deadlock-cycle aborts with member lists.
    pub cycles: Vec<CycleRecord>,
    /// Refused double releases.
    pub unlock_underflows: u64,
    /// Boundaries the counters could not attribute because their key
    /// found no slot in the recording thread's table. Zero means
    /// `per_site` and `conflict_pairs` account for everything recorded.
    pub overflow: u64,
    /// Events retained in the trace rings.
    pub total_events: u64,
    /// Trace events lost to ring wrap-around.
    pub trace_dropped: u64,
}

impl Metrics {
    /// Sum every thread's counters since the last [`reset`]. Exact at
    /// quiescence; while threads record, every count is one the cell
    /// really held, so repeated calls never go backwards and never exceed
    /// the final totals. Blocks no recording thread.
    pub fn collect() -> Metrics {
        let mut m = Metrics {
            cycles: cycles(),
            ..Metrics::default()
        };
        for rec in recorders() {
            for (key, cell) in rec.sites.entries() {
                let stats = cell.read();
                // A key whose counters `reset` zeroed keeps its slot.
                if stats.acquires + stats.releases > 0 {
                    m.per_site
                        .entry(unpack_key(key))
                        .or_default()
                        .absorb(&stats);
                }
            }
            for (key, n) in rec.pairs.entries() {
                let n = n.load(Ordering::Relaxed);
                if n > 0 {
                    *m.conflict_pairs.entry(unpack_key(key)).or_insert(0) += n;
                }
            }
            m.unlock_underflows += rec.unlock_underflows.load(Ordering::Relaxed);
            m.overflow += rec.sites.overflow.load(Ordering::Relaxed)
                + rec.pairs.overflow.load(Ordering::Relaxed);
            if let Some(ring) = rec.ring.get() {
                let (retained, dropped) = ring.occupancy();
                m.total_events += retained;
                m.trace_dropped += dropped;
            }
        }
        m
    }

    /// Aggregate an explicit event stream — the reference the in-place
    /// counters are held equal to.
    pub fn from_events(events: &[Event], cycles: Vec<CycleRecord>, trace_dropped: u64) -> Metrics {
        let mut m = Metrics {
            cycles,
            trace_dropped,
            total_events: events.len() as u64,
            ..Metrics::default()
        };
        for ev in events {
            if ev.kind == EventKind::Blocked {
                *m.conflict_pairs
                    .entry((ev.mode, ev.other_mode))
                    .or_insert(0) += 1;
                continue;
            }
            if ev.kind == EventKind::UnlockUnderflow {
                m.unlock_underflows += 1;
                continue;
            }
            let s = m.per_site.entry((ev.site, ev.mode)).or_default();
            let mut terminal = false;
            match ev.kind {
                EventKind::AcquireStart => s.acquires += 1,
                EventKind::Admit => {
                    s.admits += 1;
                    terminal = true;
                }
                EventKind::Release => s.releases += 1,
                EventKind::Timeout => {
                    s.timeouts += 1;
                    terminal = true;
                }
                EventKind::PoisonRejected => {
                    s.poison_rejects += 1;
                    terminal = true;
                }
                EventKind::CycleAborted => {
                    s.cycle_aborts += 1;
                    terminal = true;
                }
                EventKind::Blocked | EventKind::UnlockUnderflow => unreachable!(),
            }
            if terminal {
                if ev.cause.is_contended() {
                    s.contended += 1;
                }
                s.total_wait_ns += ev.wait_ns;
                s.max_wait_ns = s.max_wait_ns.max(ev.wait_ns);
                s.wait_hist[wait_bucket(ev.wait_ns)] += 1;
            }
        }
        m
    }

    /// Render as a self-describing JSON object (no external dependencies;
    /// stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"semlock-telemetry/v2\",\n");
        out.push_str(&format!("  \"overflow\": {},\n", self.overflow));
        out.push_str(&format!("  \"total_events\": {},\n", self.total_events));
        out.push_str(&format!("  \"trace_dropped\": {},\n", self.trace_dropped));
        out.push_str(&format!(
            "  \"unlock_underflows\": {},\n",
            self.unlock_underflows
        ));
        out.push_str("  \"sites\": [");
        for (i, ((site, mode), s)) in self.per_site.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let site_str = if *site == SITE_NONE {
                "null".to_string()
            } else {
                format!("{site}")
            };
            out.push_str(&format!(
                "\n    {{\"site\": {site_str}, \"mode\": {mode}, \"acquires\": {}, \
                 \"admits\": {}, \"releases\": {}, \"timeouts\": {}, \"poison_rejects\": {}, \
                 \"cycle_aborts\": {}, \"contended\": {}, \"total_wait_ns\": {}, \
                 \"max_wait_ns\": {}, \"wait_hist_log2\": {}}}",
                s.acquires,
                s.admits,
                s.releases,
                s.timeouts,
                s.poison_rejects,
                s.cycle_aborts,
                s.contended,
                s.total_wait_ns,
                s.max_wait_ns,
                json_u64_array(&s.wait_hist)
            ));
        }
        out.push_str("\n  ],\n  \"conflict_pairs\": [");
        for (i, ((req, held), n)) in self.conflict_pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"requested_mode\": {req}, \"held_mode\": {held}, \"count\": {n}}}"
            ));
        }
        out.push_str("\n  ],\n  \"cycles\": [");
        for (i, c) in self.cycles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let site_str = if c.site == SITE_NONE {
                "null".to_string()
            } else {
                format!("{}", c.site)
            };
            out.push_str(&format!(
                "\n    {{\"txn\": {}, \"instance\": {}, \"mode\": {}, \"site\": {site_str}, \
                 \"members\": {}, \"t_ns\": {}}}",
                c.txn,
                c.instance,
                c.mode,
                json_u64_array(&c.members),
                c.t_ns
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_u64_array(xs: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

// ---------------------------------------------------------------------------
// Chrome-trace exporter
// ---------------------------------------------------------------------------

/// Export an event stream in the Chrome trace event format (load the
/// result in `chrome://tracing` or Perfetto). Wait intervals become
/// complete ("X") spans from acquire start to the terminal; hold intervals
/// span admit to release; blocked observations and underflows become
/// instant events.
pub fn chrome_trace(events: &[Event]) -> String {
    fn label(prefix: &str, ev: &Event) -> String {
        if ev.site == SITE_NONE {
            format!("{prefix} m{} #{}", ev.mode, ev.instance)
        } else {
            format!(
                "{prefix} site {:#010x} m{} #{}",
                ev.site, ev.mode, ev.instance
            )
        }
    }
    let mut spans: BTreeMap<(u32, u64, u64, u32), u64> = BTreeMap::new(); // wait starts
    let mut holds: BTreeMap<(u32, u64, u64, u32), u64> = BTreeMap::new(); // admit times
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    let mut first = true;
    let mut emit = |out: &mut String, body: String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(&body);
    };
    for ev in events {
        let key = (ev.thread, ev.txn, ev.instance, ev.mode);
        let ts = ev.t_ns as f64 / 1000.0;
        match ev.kind {
            EventKind::AcquireStart => {
                spans.insert(key, ev.t_ns);
            }
            EventKind::Admit
            | EventKind::Timeout
            | EventKind::PoisonRejected
            | EventKind::CycleAborted => {
                if let Some(start) = spans.remove(&key) {
                    let dur = ev.t_ns.saturating_sub(start) as f64 / 1000.0;
                    emit(
                        &mut out,
                        format!(
                            "{{\"name\": \"{}\", \"cat\": \"wait\", \"ph\": \"X\", \"pid\": 1, \
                             \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": \
                             {{\"outcome\": \"{}\", \"cause\": \"{}\", \"txn\": {}}}}}",
                            label("wait", ev),
                            ev.thread,
                            start as f64 / 1000.0,
                            dur,
                            ev.kind.name(),
                            ev.cause.name(),
                            ev.txn
                        ),
                    );
                }
                if ev.kind == EventKind::Admit {
                    holds.insert(key, ev.t_ns);
                }
            }
            EventKind::Release => {
                // The releasing thread may differ bookkeeping-wise only in
                // site (consumed at admit); match on (thread,txn,instance,mode).
                if let Some(admit) = holds.remove(&key) {
                    let dur = ev.t_ns.saturating_sub(admit) as f64 / 1000.0;
                    emit(
                        &mut out,
                        format!(
                            "{{\"name\": \"{}\", \"cat\": \"hold\", \"ph\": \"X\", \"pid\": 1, \
                             \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"txn\": {}}}}}",
                            label("hold", ev),
                            ev.thread,
                            admit as f64 / 1000.0,
                            dur,
                            ev.txn
                        ),
                    );
                }
            }
            EventKind::Blocked | EventKind::UnlockUnderflow => {
                emit(
                    &mut out,
                    format!(
                        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"pid\": 1, \
                         \"tid\": {}, \"ts\": {:.3}, \"s\": \"t\", \"args\": {{\"txn\": {}, \
                         \"other_mode\": {}}}}}",
                        label(ev.kind.name(), ev),
                        ev.kind.name(),
                        ev.thread,
                        ts,
                        ev.txn,
                        ev.other_mode
                    ),
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global flag or reset global state.
    fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }

    fn ev(kind: EventKind, txn: u64, instance: u64, mode: u32, wait_ns: u64) -> Event {
        Event {
            kind,
            cause: WaitCause::Uncontended,
            thread: 0,
            txn,
            instance,
            mode,
            other_mode: MODE_NONE,
            site: 7,
            t_ns: 0,
            wait_ns,
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let e = Event {
            kind: EventKind::CycleAborted,
            cause: WaitCause::Deadlock,
            thread: 12,
            txn: u64::MAX - 3,
            instance: 999,
            mode: 41,
            other_mode: MODE_NONE,
            site: 0xdead_beef,
            t_ns: 123_456_789,
            wait_ns: 42,
        };
        let w = pack(&e);
        let d = unpack(&w).unwrap();
        assert_eq!(d.kind, e.kind);
        assert_eq!(d.cause, e.cause);
        assert_eq!(d.thread, e.thread);
        assert_eq!(d.txn, e.txn);
        assert_eq!(d.instance, e.instance);
        assert_eq!(d.mode, e.mode);
        assert_eq!(d.other_mode, e.other_mode);
        assert_eq!(d.site, e.site);
        assert_eq!(d.t_ns, e.t_ns);
        assert_eq!(d.wait_ns, e.wait_ns);
    }

    #[test]
    fn wait_bucket_is_log2() {
        assert_eq!(wait_bucket(0), 0);
        assert_eq!(wait_bucket(1), 1);
        assert_eq!(wait_bucket(2), 2);
        assert_eq!(wait_bucket(3), 2);
        assert_eq!(wait_bucket(1024), 11);
        assert_eq!(wait_bucket(u64::MAX), WAIT_BUCKETS - 1);
    }

    #[test]
    fn ring_wraps_and_counts_dropped() {
        let ring = Ring::new();
        let total = RING_CAPACITY + 100;
        for i in 0..total {
            ring.push(&ev(EventKind::Admit, i as u64, 1, 0, 0));
        }
        let mut out = Vec::new();
        let dropped = ring.drain_into(&mut out);
        assert_eq!(dropped, 100);
        assert_eq!(ring.occupancy(), (RING_CAPACITY as u64, 100));
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(out.first().unwrap().txn, 100);
        assert_eq!(out.last().unwrap().txn, total as u64 - 1);
    }

    #[test]
    fn balance_checker_accepts_and_rejects() {
        let ok = vec![
            ev(EventKind::AcquireStart, 1, 5, 0, 0),
            ev(EventKind::Admit, 1, 5, 0, 0),
            ev(EventKind::Release, 1, 5, 0, 0),
            ev(EventKind::AcquireStart, 2, 5, 0, 0),
            ev(EventKind::Timeout, 2, 5, 0, 10),
            ev(EventKind::Blocked, 2, 5, 0, 0), // outside the invariant
        ];
        check_balanced(&ok).unwrap();
        let missing_terminal = vec![ev(EventKind::AcquireStart, 1, 5, 0, 0)];
        assert!(check_balanced(&missing_terminal).is_err());
        let double_release = vec![
            ev(EventKind::AcquireStart, 1, 5, 0, 0),
            ev(EventKind::Admit, 1, 5, 0, 0),
            ev(EventKind::Release, 1, 5, 0, 0),
            ev(EventKind::Release, 1, 5, 0, 0),
        ];
        assert!(check_balanced(&double_release).is_err());
    }

    #[test]
    fn metrics_aggregate_histograms_and_conflicts() {
        let mut blocked = ev(EventKind::Blocked, 2, 5, 3, 0);
        blocked.other_mode = 9;
        let events = vec![
            ev(EventKind::AcquireStart, 1, 5, 3, 0),
            ev(EventKind::Admit, 1, 5, 3, 1500),
            ev(EventKind::Release, 1, 5, 3, 0),
            blocked,
        ];
        let m = Metrics::from_events(&events, Vec::new(), 2);
        let s = &m.per_site[&(7, 3)];
        assert_eq!(s.acquires, 1);
        assert_eq!(s.admits, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.total_wait_ns, 1500);
        assert_eq!(s.wait_hist[wait_bucket(1500)], 1);
        assert_eq!(m.conflict_pairs[&(3, 9)], 1);
        assert_eq!(m.trace_dropped, 2);
        let json = m.to_json();
        assert!(json.contains("\"schema\": \"semlock-telemetry/v2\""));
        assert!(json.contains("\"overflow\": 0"));
        assert!(json.contains("\"trace_dropped\": 2"));
        assert!(json.contains("\"requested_mode\": 3"));
    }

    #[test]
    fn chrome_trace_pairs_wait_and_hold_spans() {
        let mut events = vec![
            ev(EventKind::AcquireStart, 1, 5, 3, 0),
            ev(EventKind::Admit, 1, 5, 3, 0),
            ev(EventKind::Release, 1, 5, 3, 0),
        ];
        events[0].t_ns = 1_000;
        events[1].t_ns = 3_000;
        events[2].t_ns = 9_000;
        let trace = chrome_trace(&events);
        assert!(trace.contains("\"cat\": \"wait\""));
        assert!(trace.contains("\"cat\": \"hold\""));
        assert!(trace.contains("\"dur\": 2.000"));
        assert!(trace.contains("\"dur\": 6.000"));
    }

    #[test]
    fn disabled_by_default_and_toggle_works() {
        let _g = serial();
        assert_eq!(level(), Level::Off);
        assert!(!enabled());
        enable();
        assert_eq!(level(), Level::Counters);
        assert!(enabled());
        set_level(Level::Trace);
        assert!(enabled());
        disable();
        assert_eq!(level(), Level::Off);
    }

    /// Follow one acquisition of `mode` at `site` the way the runtime
    /// does, ending in `kind`; `held` is what a refused first try saw.
    fn acquire(site: u32, mode: u32, held: &[u32], kind: EventKind) {
        set_context(77, site);
        let mut a = Acquisition::begin(123, mode, None).expect("telemetry is on");
        if !held.is_empty() {
            a.refused();
            held.iter().for_each(|&h| a.blocked_by(h));
        }
        a.finish(kind);
    }

    fn release(site: u32, mode: u32, underflow: bool) {
        set_context(77, site);
        Release::begin()
            .expect("telemetry is on")
            .finish(123, mode, underflow);
    }

    #[test]
    fn counters_record_in_place_and_reset_zeroes_both_tiers() {
        let _g = serial();
        reset();
        enable();
        acquire(3, 1, &[], EventKind::Admit);
        release(3, 1, false);
        acquire(3, 1, &[1, 2], EventKind::Timeout);
        release(3, 1, true);
        let m = Metrics::collect();
        let s = &m.per_site[&(3, 1)];
        assert_eq!((s.acquires, s.admits, s.releases, s.timeouts), (2, 1, 1, 1));
        assert_eq!(s.contended, 1);
        assert_eq!(s.wait_hist[0], 1, "the first-try admission waited nothing");
        assert_eq!(s.wait_hist.iter().sum::<u64>(), 2);
        assert_eq!(m.conflict_pairs[&(1, 1)], 1);
        assert_eq!(m.conflict_pairs[&(1, 2)], 1);
        assert_eq!((m.unlock_underflows, m.overflow), (1, 0));
        assert!(snapshot().0.is_empty(), "the counter level traces nothing");

        set_level(Level::Trace);
        acquire(3, 1, &[2], EventKind::Admit);
        release(3, 1, false);
        record_cycle(77, 123, 1, 3, &[42, 77]);
        disable();
        let (events, dropped) = snapshot();
        assert_eq!(dropped, 0);
        let kinds: Vec<_> = events
            .iter()
            .filter(|e| e.txn == 77)
            .map(|e| e.kind)
            .collect();
        use EventKind::{AcquireStart, Admit, Blocked};
        assert_eq!(kinds, [AcquireStart, Blocked, Admit, EventKind::Release]);
        check_balanced(&events).unwrap();
        assert_eq!(Metrics::collect().per_site[&(3, 1)].admits, 2);
        assert!(cycles().iter().any(|c| c.members == vec![42, 77]));

        reset();
        let m = Metrics::collect();
        assert!(m.per_site.is_empty() && m.conflict_pairs.is_empty());
        assert_eq!((m.unlock_underflows, m.total_events), (0, 0));
        assert!(snapshot().0.is_empty());
        assert!(cycles().is_empty());
    }

    #[test]
    fn a_full_probe_window_counts_overflow_instead_of_dropping() {
        let table: Table<AtomicU64> = Table::new(PROBE_LIMIT);
        for key in 0..PROBE_LIMIT as u64 {
            bump(table.cell(key).expect("the table has room"), 1);
        }
        assert!(table.cell(1 << 40).is_none());
        assert!(table.cell(1 << 40).is_none());
        assert_eq!(table.overflow.load(Ordering::Relaxed), 2);
        bump(table.cell(3).expect("a stored key is still found"), 1);
        assert_eq!(
            table
                .entries()
                .map(|(_, n)| n.load(Ordering::Relaxed))
                .sum::<u64>(),
            17
        );
    }

    #[test]
    fn context_is_stamped_and_the_site_consumed_by_the_entry_point() {
        let _g = serial();
        set_context(9, 4);
        assert_eq!(context(), (9, 4));
        enable();
        let a = Acquisition::begin(1, 0, None).unwrap();
        disable();
        assert_eq!(a.site(), 4);
        assert_eq!(context(), (9, SITE_NONE));
        set_site(6);
        assert_eq!(context(), (9, 6));
        set_txn(2);
        assert_eq!(context(), (2, 6));
        set_site(SITE_NONE);
    }
}
