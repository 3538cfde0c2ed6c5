//! The per-partition locking mechanism of Fig. 20: **one mechanism,
//! three counter representations, one acquisition protocol**.
//!
//! Each locking mode is represented by a hold counter: the number of
//! transactions currently holding the ADT in that mode. A transaction may
//! acquire mode `l` only when no conflicting mode `l'` (one with
//! `F_c(l, l') = false`) has a positive counter. The paper makes the
//! check-and-increment atomic with "a short internal lock"; this module
//! keeps that scheme as the *wide* representation (and correctness
//! oracle) and serves narrower partitions from a single admission word.
//! The representation is a function of the partition's mode count
//! ([`AdmissionBackend::Auto`]):
//!
//! * **packed** — up to [`PACKED_MODE_LIMIT`] = 8 modes in one
//!   `AtomicU64`: eight 7-bit hold-count fields plus a waiter-summary
//!   bit;
//! * **Dwcas** — up to [`DWCAS_MODE_LIMIT`] = 16 modes in one
//!   `AtomicU128`: sixteen 7-bit fields (bits 0..112) plus the
//!   waiter-summary bit at bit 127, CASed with `lock cmpxchg16b` on
//!   x86_64 (a portable spinlock fallback exists behind
//!   `--no-default-features`; `Auto` only selects Dwcas when the word is
//!   genuinely lock-free);
//! * **wide** — any mode count: one `AtomicU32` per mode,
//!   check-then-increment under the internal mutex.
//!
//! The two words run the same code: the admission protocol is written
//! once over [`WordInt`], and the ordering audit ([`ORDERING_AUDIT`])
//! has one row per site, not one per width.
//!
//! ## Acquisition: admit try → bounded probes → park
//!
//! Every acquisition starts with one **admit try**: a single
//! (double-word) CAS that checks the conflicting-mode mask and increments
//! the local count in one try-update — or, on the wide counters, one
//! mutex-guarded check-then-increment. A refused try has no side effect.
//! That is the whole of [`Mech::try_lock`], and the whole of an
//! uncontended [`Mech::lock`] / [`Mech::lock_deadline`].
//!
//! A refused blocking acquisition then makes up to [`OPTIMISTIC_PROBES`]
//! further tries, pausing 1, 2, 4, … 64 `spin_loop`s between them (the
//! bounded form reads the clock before each and gives up at its
//! deadline — an already-expired deadline is a single try). Only when the
//! budget is spent does it **park**: on a claim-based lock-free waiter
//! stack ([`crate::stack`]) for the words — no path of the packed or
//! Dwcas layouts ever takes the internal mutex — or on the internal
//! condvar for the wide counters.
//!
//! ## Word layouts
//!
//! ```text
//! packed (AtomicU64):
//!   bit 63  bits 56..63    bits 49..56   ...   bits 7..14   bits 0..7
//!   WAITERS (reserved)     count[7]            count[1]     count[0]
//!
//! Dwcas (AtomicU128):
//!   bit 127  bits 112..127   bits 105..112  ...  bits 7..14  bits 0..7
//!   WAITERS  (reserved)      count[15]           count[1]    count[0]
//! ```
//!
//! Each count field is [`FIELD_BITS`] = 7 bits wide, so one mode supports
//! up to 127 simultaneous holders; an admission that would overflow the
//! field parks until a release frees capacity (it can never corrupt a
//! neighbouring field). The `WAITERS` bit summarizes "the waiter stack
//! may be non-empty"; because it lives in the same word as the counts, a
//! releaser learns about waiters from the very CAS that publishes its
//! decrement — no separate flag load, and no `SeqCst` fences: the word's
//! single modification order settles every check-vs-decrement race.
//!
//! ## Claim-based release / wakeup protocol (no lost wakeups, no locks)
//!
//! A parking acquirer runs *episodes*: push a heap node onto the
//! Treiber waiter stack (one tagged-head CAS), set `WAITERS` with a
//! `fetch_or`, and re-check admission **from the word the `fetch_or`
//! returned** — self-admitting if the conflict drained before the bit
//! landed — otherwise park on the node's own flag + condvar. A releaser
//! CAS-decrements its count field; if the pre-decrement word carried
//! `WAITERS` it (1) **clears** the bit, (2) **claims** the whole stack
//! (one CAS swapping the head to empty), and (3) wakes the claimed
//! batch, each waiter retrying admission and re-pushing if a rival won.
//! The decrement and the `fetch_or` target the same atomic word, so they
//! are totally ordered: if the decrement lands first, the waiter's
//! returned word shows the freed count and it self-admits; if the
//! `fetch_or` lands first, the decrement observes the bit and claims the
//! stack, which the push (ordered before the `fetch_or`) already
//! reached. Clearing before claiming makes the bit self-stabilizing: a
//! `fetch_or` ordered after the clear re-sets it with nothing left to
//! erase it, so no release can miss both the bit and the batch. The
//! notification itself is per-node and cannot be lost: a claimer's
//! notify either wakes the parked waiter or marks the node `NOTIFIED`
//! before the waiter parks, and `park` returns immediately on a
//! pre-notified node.
//!
//! Two waiting strategies are provided:
//!
//! * [`WaitStrategy::Block`] — the protocol above. This is the default:
//!   it behaves well on oversubscribed machines (and is what a Java
//!   `synchronized`-based implementation effectively does once the JVM
//!   inflates the lock).
//! * [`WaitStrategy::Spin`] — a literal transcription of Fig. 20's
//!   `goto start` loop after the first refused try, useful for the
//!   ablation benchmark.

use crate::stack::WaiterStack;
use crate::sync::{AtomicU128, AtomicU32, AtomicU64, Condvar, Mutex, Ordering};
use std::time::{Duration, Instant};

/// How acquirers wait for conflicting modes to drain.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WaitStrategy {
    /// Sleep on a condvar (default).
    #[default]
    Block,
    /// Spin, re-checking the counters (Fig. 20 verbatim).
    Spin,
}

/// Which counter representation the [`Mech`] of each partition uses.
///
/// [`AdmissionBackend::Auto`] is right everywhere outside tests and A/B
/// benches: the representation is a function of the partition's mode
/// count (and, for 9–16 modes, of whether this build and machine serve a
/// lock-free 128-bit CAS). The concrete variants exist so the conformance
/// suite can force the Wide oracle and the Dwcas word onto small
/// partitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
#[non_exhaustive]
pub enum AdmissionBackend {
    /// Pick per partition: packed when the partition has at most
    /// [`PACKED_MODE_LIMIT`] modes, the 128-bit Dwcas word up to
    /// [`DWCAS_MODE_LIMIT`] modes when the hardware serves it lock-free
    /// ([`crate::dwcas::dwcas_available`]), wide otherwise.
    #[default]
    Auto,
    /// The paper's Fig. 20 scheme: per-mode counters, check-then-increment
    /// under an internal mutex. Any mode count; never lock-free; the
    /// oracle the conformance suite checks the word representations
    /// against.
    Wide,
    /// All hold counts packed into one 64-bit word; admission is one CAS.
    /// Panics at construction if a partition exceeds
    /// [`PACKED_MODE_LIMIT`] modes.
    Packed,
    /// All hold counts in one 128-bit word (cmpxchg16b; portable spinlock
    /// fallback without the `dwcas` feature, so it works — not lock-free —
    /// on every build). Panics at construction if a partition exceeds
    /// [`DWCAS_MODE_LIMIT`] modes.
    Dwcas,
}

impl AdmissionBackend {
    /// The three concrete representations (everything except `Auto`), in
    /// the order the conformance suites iterate them.
    pub const CONCRETE: [AdmissionBackend; 3] = [
        AdmissionBackend::Wide,
        AdmissionBackend::Packed,
        AdmissionBackend::Dwcas,
    ];

    /// Stable snake_case name (bench tables, test diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionBackend::Auto => "auto",
            AdmissionBackend::Wide => "wide",
            AdmissionBackend::Packed => "packed",
            AdmissionBackend::Dwcas => "dwcas",
        }
    }
}

impl std::fmt::Display for AdmissionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Largest partition the packed single-word representation can serve.
pub const PACKED_MODE_LIMIT: usize = 8;

/// Largest partition the 128-bit Dwcas representation can serve: sixteen
/// 7-bit hold-count fields (bits 0..112) plus the waiter-summary region
/// (bit 127).
pub const DWCAS_MODE_LIMIT: usize = 16;

/// Width of one packed hold-count field.
pub const FIELD_BITS: u32 = 7;

/// Largest hold count one packed field can represent (admissions beyond
/// this park until a release frees capacity).
pub const FIELD_MAX: u64 = (1 << FIELD_BITS) - 1;

/// The hand-audited memory orderings of the admission protocol, as named
/// constants.
///
/// Every atomic access in the admission word (one generic protocol, run at
/// 64 and at 128 bits), the waiter stack and the wide counters names its
/// ordering from this module instead of writing an `Ordering::` literal
/// inline, so the choice is a single definition that (a) the production
/// code compiles against, (b) the [`ORDERING_AUDIT`] table documents with
/// a safety claim, and (c) the `model` crate's interleaving checker
/// imports verbatim — the checked protocol and the shipped protocol cannot
/// silently diverge on an ordering.
pub mod ordering {
    pub use crate::sync::Ordering;

    /// Word admission: initial word load seeding the CAS loop. Relaxed —
    /// admission is decided by the CAS, which re-validates the whole word.
    pub const WORD_ADMIT_LOAD: Ordering = Ordering::Relaxed;
    /// Word admission: success ordering of the admit CAS. Acquire — pairs
    /// with [`WORD_RELEASE_CAS_OK`] so the critical-section writes of
    /// every conflicting holder that released happen-before the admitted
    /// section's reads.
    pub const WORD_ADMIT_CAS_OK: Ordering = Ordering::Acquire;
    /// Word admission: failure ordering of the admit CAS. Relaxed — a
    /// failed CAS only retries with the freshly returned word.
    pub const WORD_ADMIT_CAS_FAIL: Ordering = Ordering::Relaxed;
    /// Word release: initial word load seeding the CAS loop. Relaxed —
    /// the CAS re-validates.
    pub const WORD_RELEASE_LOAD: Ordering = Ordering::Relaxed;
    /// Word release: success ordering of the decrement CAS. Release —
    /// publishes the critical-section writes to the next conflicting
    /// admitter (pairs with [`WORD_ADMIT_CAS_OK`]). No Acquire half:
    /// the view join that lets the claimer find every counted pusher's
    /// node happens at the handoff's [`STACK_SUMMARY_CLEAR`] (Acquire),
    /// which the releaser reaches before it touches the stack. (Earlier
    /// drafts shipped AcqRel here; under the clear-first handoff the
    /// model shows the Acquire half is unobservable, so the audit ships
    /// the weakest ordering whose further weakening is refuted.)
    pub const WORD_RELEASE_CAS_OK: Ordering = Ordering::Release;
    /// Word release: failure ordering of the decrement CAS. Relaxed.
    pub const WORD_RELEASE_CAS_FAIL: Ordering = Ordering::Relaxed;
    /// Waiter stack, push: seed load of the tagged head. Relaxed — the
    /// CAS re-validates.
    pub const STACK_PUSH_HEAD_LOAD: Ordering = Ordering::Relaxed;
    /// Waiter stack, push: the node's `next` store before the head CAS.
    /// Relaxed — ordered end to end by the
    /// [`STACK_PUSH_CAS_OK`]/[`STACK_CLAIM_CAS_OK`] Release/Acquire pair.
    pub const STACK_NEXT_STORE: Ordering = Ordering::Relaxed;
    /// Waiter stack, push: success ordering of the head CAS. Release —
    /// publishes the node's `next` link and reset state to the claimer's
    /// Acquire CAS; without it a claimer can read a stale `next` and
    /// strand every deeper node.
    pub const STACK_PUSH_CAS_OK: Ordering = Ordering::Release;
    /// Waiter stack, push: failure ordering of the head CAS. Relaxed.
    pub const STACK_PUSH_CAS_FAIL: Ordering = Ordering::Relaxed;
    /// Waiter summary bit: the pusher's `fetch_or` on the admission word,
    /// performed *after* the push. Release — heads the release sequence
    /// the handoff's Acquire [`STACK_SUMMARY_CLEAR`] joins, making the
    /// pushed node visible to the claim; the pusher re-checks admission from this
    /// RMW's returned word, which settles the other interleaving (a
    /// release that decremented before the bit was set shows up in the
    /// returned word as a drained conflict, and the pusher self-admits).
    pub const STACK_SUMMARY_FETCH_OR: Ordering = Ordering::Release;
    /// Waiter summary bit: the releaser's `fetch_and` clearing the bit,
    /// performed strictly *before* the claim. Clearing first is what makes
    /// the protocol self-stabilizing: every op on the admission word is an
    /// RMW, so a pusher's `fetch_or` that lands after this clear in the
    /// word's modification order re-sets the bit and stays set — there is
    /// no later erase for it to race with, hence no republish step and no
    /// window in which a concurrent release can miss both the bit and the
    /// batch. Acquire — joins (via RMW release-sequence continuation) the
    /// view of every pusher whose `fetch_or` preceded this clear, so the
    /// claim below it is coherence-bounded to see those pushers' nodes;
    /// Relaxed would let real hardware order the claim's head read before
    /// an already-counted pusher's push. (The interleaving-based model
    /// cannot exhibit that cross-location cycle, so this is the one
    /// audited non-Relaxed site without a seeded mutant.)
    pub const STACK_SUMMARY_CLEAR: Ordering = Ordering::Acquire;
    /// Waiter stack, peek: the head load behind `WaiterStack::is_empty`
    /// (diagnostics and tests only — the handoff itself never peeks).
    /// Relaxed.
    pub const STACK_PEEK_HEAD_LOAD: Ordering = Ordering::Relaxed;
    /// Waiter stack, claim: seed load of the tagged head. Relaxed — the
    /// releaser's view (joined at the Acquire [`STACK_SUMMARY_CLEAR`]
    /// just above the claim) already forbids reading a head older than
    /// any counted bit-setter's push, and the CAS re-validates.
    pub const STACK_CLAIM_HEAD_LOAD: Ordering = Ordering::Relaxed;
    /// Waiter stack, claim: success ordering of the head-swap CAS.
    /// Acquire — pairs with [`STACK_PUSH_CAS_OK`] so the claimer reads
    /// every claimed node's `next` chain and state coherently.
    pub const STACK_CLAIM_CAS_OK: Ordering = Ordering::Acquire;
    /// Waiter stack, claim: failure ordering of the head-swap CAS.
    /// Relaxed.
    pub const STACK_CLAIM_CAS_FAIL: Ordering = Ordering::Relaxed;
    /// Waiter stack, claim: the `next` load while walking the claimed
    /// chain (strictly before notifying the node — a notified waiter may
    /// re-push and overwrite `next`). Relaxed — ordered by the claim
    /// CAS's Acquire.
    pub const STACK_NEXT_LOAD: Ordering = Ordering::Relaxed;
    /// Wide blocking admission: the waiter-counter `fetch_add`/`fetch_sub`
    /// around the conflict check. SeqCst — first half of the
    /// store-buffering pair with the releaser (register-waiter *then* read
    /// counts vs decrement *then* read waiters).
    pub const WIDE_WAITER_RMW: Ordering = Ordering::SeqCst;
    /// Wide conflict check: the per-mode counter loads. SeqCst — second
    /// access of the waiter's store-buffering half; must not reorder
    /// before the waiter registration.
    pub const WIDE_CONFLICT_LOAD: Ordering = Ordering::SeqCst;
    /// Wide release: the counter-decrement RMW. SeqCst — first access of
    /// the releaser's store-buffering half.
    pub const WIDE_RELEASE_RMW: Ordering = Ordering::SeqCst;
    /// Wide release: the `waiters` load deciding whether to notify.
    /// SeqCst — second access of the releaser's store-buffering half; must
    /// not reorder before the decrement.
    pub const WIDE_WAITERS_LOAD: Ordering = Ordering::SeqCst;
}

use ordering as ord;

/// One machine-checked claim in [`ORDERING_AUDIT`]: an atomic-access site
/// in the admission protocol, the ordering it ships with, the one-notch
/// weakening the model checker must reject (when one exists — sites
/// already at Relaxed have nothing to weaken), and the safety claim the
/// ordering discharges.
#[derive(Clone, Copy, Debug)]
pub struct OrderingAuditEntry {
    /// Stable site key, e.g. `"word.admit.cas_ok"`.
    pub site: &'static str,
    /// The ordering the production protocol uses (a constant from
    /// [`ordering`]).
    pub ordering: Ordering,
    /// The seeded mutant: this site weakened one notch. `None` for sites
    /// that are already Relaxed.
    pub mutant: Option<Ordering>,
    /// What goes wrong without the ordering — the claim the model
    /// checker's property suite verifies (and whose mutant it must catch).
    pub claim: &'static str,
}

/// The audited ordering table for the admission protocol, one entry per
/// atomic-access site in [`Mech`]: the admission word (written once,
/// generic over its width, so one row per site serves both the 64-bit
/// and the 128-bit word), the waiter stack and the wide counters.
///
/// The `model` crate consumes this table twice: the unmutated run asserts
/// the protocol built from exactly these orderings satisfies admission
/// exclusivity, publication, no-lost-wakeup, and release-count balance
/// over every bounded schedule; the mutant runs weaken each `Some(..)`
/// entry in turn and assert the checker reports a violation. `semlockc
/// check --json` embeds the table so downstream tooling sees which claims
/// are machine-checked.
pub const ORDERING_AUDIT: &[OrderingAuditEntry] = &[
    OrderingAuditEntry {
        site: "word.admit.load",
        ordering: ord::WORD_ADMIT_LOAD,
        mutant: None,
        claim: "seed load only; the CAS re-validates the whole word",
    },
    OrderingAuditEntry {
        site: "word.admit.cas_ok",
        ordering: ord::WORD_ADMIT_CAS_OK,
        mutant: Some(Ordering::Relaxed),
        claim: "holder's critical-section writes happen-before a conflicting admitter's reads",
    },
    OrderingAuditEntry {
        site: "word.admit.cas_fail",
        ordering: ord::WORD_ADMIT_CAS_FAIL,
        mutant: None,
        claim: "failed CAS only retries with the returned word",
    },
    OrderingAuditEntry {
        site: "word.release.load",
        ordering: ord::WORD_RELEASE_LOAD,
        mutant: None,
        claim: "seed load only; the CAS re-validates the whole word",
    },
    OrderingAuditEntry {
        site: "word.release.cas_ok",
        ordering: ord::WORD_RELEASE_CAS_OK,
        mutant: Some(Ordering::Relaxed),
        claim: "publishes critical-section writes to the next conflicting admitter; \
                dropping it lets the admitted section read pre-release state (the \
                claim-path view join lives at stack.summary.clear, not here)",
    },
    OrderingAuditEntry {
        site: "word.release.cas_fail",
        ordering: ord::WORD_RELEASE_CAS_FAIL,
        mutant: None,
        claim: "failed CAS only retries with the returned word",
    },
    OrderingAuditEntry {
        site: "stack.push.head_load",
        ordering: ord::STACK_PUSH_HEAD_LOAD,
        mutant: None,
        claim: "seed load only; the CAS re-validates the tagged head",
    },
    OrderingAuditEntry {
        site: "stack.push.next_store",
        ordering: ord::STACK_NEXT_STORE,
        mutant: None,
        claim: "ordered by the push/claim head-CAS Release/Acquire pair",
    },
    OrderingAuditEntry {
        site: "stack.push.cas_ok",
        ordering: ord::STACK_PUSH_CAS_OK,
        mutant: Some(Ordering::Relaxed),
        claim: "publishes the pushed node's next link and reset state to the claimer; \
                without it the claimer reads a stale next and strands deeper waiters",
    },
    OrderingAuditEntry {
        site: "stack.push.cas_fail",
        ordering: ord::STACK_PUSH_CAS_FAIL,
        mutant: None,
        claim: "failed CAS only retries with the returned head",
    },
    OrderingAuditEntry {
        site: "stack.summary.fetch_or",
        ordering: ord::STACK_SUMMARY_FETCH_OR,
        mutant: Some(Ordering::Relaxed),
        claim: "heads the release sequence the handoff's Acquire clear joins, making the \
                pushed node visible to the claim; the returned word is the pusher's \
                admission re-check, covering the decrement-before-bit interleaving",
    },
    OrderingAuditEntry {
        // Deliberately no seeded mutant: the weakening (Relaxed) only
        // misbehaves through a po∪mo cross-location cycle (claim reads
        // the head before a push whose fetch_or the clear already
        // consumed), which an interleaving-based explorer cannot
        // construct — every model execution totally orders RMWs in real
        // time. Documented hardware-only ordering, like the stack's
        // refcount reclamation.
        site: "stack.summary.clear",
        ordering: ord::STACK_SUMMARY_CLEAR,
        mutant: None,
        claim: "clearing before the claim, this Acquire joins every already-counted pusher's \
                view so the claim cannot read a head older than their pushes; pushers whose \
                fetch_or lands after the clear re-set the bit and it stays set",
    },
    OrderingAuditEntry {
        site: "stack.peek.head_load",
        ordering: ord::STACK_PEEK_HEAD_LOAD,
        mutant: None,
        claim: "diagnostic peek only; the handoff never branches on it",
    },
    OrderingAuditEntry {
        site: "stack.claim.head_load",
        ordering: ord::STACK_CLAIM_HEAD_LOAD,
        mutant: None,
        claim: "freshness forced by the view joined at the Acquire summary clear just \
                above the claim; the CAS re-validates",
    },
    OrderingAuditEntry {
        site: "stack.claim.cas_ok",
        ordering: ord::STACK_CLAIM_CAS_OK,
        mutant: Some(Ordering::Relaxed),
        claim: "pairs with stack.push.cas_ok so the claimed next chain and node state read \
                coherently",
    },
    OrderingAuditEntry {
        site: "stack.claim.cas_fail",
        ordering: ord::STACK_CLAIM_CAS_FAIL,
        mutant: None,
        claim: "failed CAS only retries with the returned head",
    },
    OrderingAuditEntry {
        site: "stack.claim.next_load",
        ordering: ord::STACK_NEXT_LOAD,
        mutant: None,
        claim: "ordered by the claim CAS Acquire; read strictly before the notify so a \
                re-pushing waiter cannot overwrite it first",
    },
    OrderingAuditEntry {
        site: "wide.waiter.rmw",
        ordering: ord::WIDE_WAITER_RMW,
        mutant: Some(Ordering::AcqRel),
        claim: "waiter registration precedes its conflict check in the SeqCst order \
                (store-buffering pair, waiter half)",
    },
    OrderingAuditEntry {
        site: "wide.conflict.load",
        ordering: ord::WIDE_CONFLICT_LOAD,
        mutant: Some(Ordering::Acquire),
        claim: "conflict check reads counts no older than the SeqCst order at registration \
                (store-buffering pair, waiter half)",
    },
    OrderingAuditEntry {
        site: "wide.release.rmw",
        ordering: ord::WIDE_RELEASE_RMW,
        mutant: Some(Ordering::AcqRel),
        claim: "decrement precedes the waiters load in the SeqCst order \
                (store-buffering pair, releaser half)",
    },
    OrderingAuditEntry {
        site: "wide.waiters.load",
        ordering: ord::WIDE_WAITERS_LOAD,
        mutant: Some(Ordering::Acquire),
        claim: "waiters load reads a count no older than the SeqCst order at the decrement \
                (store-buffering pair, releaser half)",
    },
];

/// Human-readable name of a memory ordering (JSON rendering of the audit
/// table).
pub fn ordering_name(o: Ordering) -> &'static str {
    match o {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "Unknown",
    }
}

/// The integer an admission word holds: `u64` (eight hold-count fields)
/// or `u128` (sixteen). The admission protocol is written once over this
/// trait; the two widths differ in nothing else.
///
/// Layout, at either width: field `l` occupies bits `7l..7l+7`, the
/// waiter-summary bit is the top bit, and the bits in between are
/// reserved (always zero).
pub trait WordInt:
    Copy
    + Eq
    + std::fmt::Debug
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::Not<Output = Self>
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Shl<u32, Output = Self>
    + std::ops::Shr<u32, Output = Self>
{
    /// All bits clear.
    const ZERO: Self;
    /// The value one.
    const ONE: Self;
    /// Width of the word in bits.
    const BITS: u32;
    /// How many hold-count fields the word carries — the largest
    /// partition it can serve.
    const FIELDS: usize;
    /// The low [`Self::BITS`] bits of `x`.
    fn truncate(x: u128) -> Self;
    /// The low 64 bits of the word.
    fn low64(self) -> u64;
}

impl WordInt for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = 1;
    const BITS: u32 = u64::BITS;
    const FIELDS: usize = PACKED_MODE_LIMIT;
    #[inline]
    fn truncate(x: u128) -> u64 {
        x as u64
    }
    #[inline]
    fn low64(self) -> u64 {
        self
    }
}

impl WordInt for u128 {
    const ZERO: u128 = 0;
    const ONE: u128 = 1;
    const BITS: u32 = u128::BITS;
    const FIELDS: usize = DWCAS_MODE_LIMIT;
    #[inline]
    fn truncate(x: u128) -> u128 {
        x
    }
    #[inline]
    fn low64(self) -> u64 {
        self as u64
    }
}

/// Bit offset of a local mode's count field within an admission word.
/// Public so the `model` crate checks the protocol with the exact field
/// math that ships.
#[inline]
pub fn field_shift(local: u32) -> u32 {
    local * FIELD_BITS
}

/// Extract a local mode's count field from an admission-word snapshot.
#[inline]
pub fn field_of<I: WordInt>(word: I, local: u32) -> u64 {
    (word >> field_shift(local)).low64() & FIELD_MAX
}

/// Waiter-summary bit of an admission word — its top bit: set by a
/// conflicted acquirer after pushing its node onto the waiter stack,
/// observed by releasers in their own decrement CAS, cleared by the
/// claimer before it claims.
#[inline]
pub fn waiters_bit<I: WordInt>() -> I {
    I::ONE << (I::BITS - 1)
}

/// The admission-word field mask covering the given conflicting local
/// modes: `word & mask != 0` iff some conflicting mode has a positive
/// count. Computed at the 128-bit width; the 64-bit word uses its low
/// half, which is the same mask because a packed partition has no local
/// above 7. Meaningful only for partitions within [`DWCAS_MODE_LIMIT`];
/// wider partitions never consult the mask.
pub fn conflict_mask(locals: &[u32]) -> u128 {
    locals
        .iter()
        .filter(|&&c| (c as usize) < DWCAS_MODE_LIMIT)
        .fold(0, |m, &c| m | ((FIELD_MAX as u128) << field_shift(c)))
}

/// The conflict set of one mode: the local indices of the modes it does
/// not commute with, plus the precomputed admission-word mask over them.
/// Every local must be below the partition's mode count.
///
/// [`crate::mode::ModePlacement`] precomputes and stores both at table
/// build time so the admission fast path performs zero per-acquire setup;
/// ad-hoc callers (tests, benches) build one with [`ConflictSet::new`].
#[derive(Clone, Copy, Debug)]
pub struct ConflictSet<'a> {
    locals: &'a [u32],
    mask: u128,
}

impl<'a> ConflictSet<'a> {
    /// Build a conflict set, computing the field mask from the locals.
    pub fn new(locals: &'a [u32]) -> ConflictSet<'a> {
        ConflictSet {
            locals,
            mask: conflict_mask(locals),
        }
    }

    /// Rehydrate from parts precomputed at mode-table build time.
    pub fn from_parts(locals: &'a [u32], mask: u128) -> ConflictSet<'a> {
        debug_assert_eq!(mask, conflict_mask(locals));
        ConflictSet { locals, mask }
    }

    /// The conflicting local mode indices.
    pub fn locals(&self) -> &'a [u32] {
        self.locals
    }

    /// The admission-word field mask (see [`conflict_mask`]).
    pub fn mask(&self) -> u128 {
        self.mask
    }
}

/// One member of a batched group admission: a local mode index plus its
/// precomputed conflict set. A group is admitted **all-or-nothing**: every
/// member's conflict check passes and every count increments, or no count
/// changes at all (see [`Mech::try_lock_group`]).
#[derive(Clone, Copy, Debug)]
pub struct GroupRequest<'a> {
    /// Local mode index within the partition.
    pub local: u32,
    /// The mode's conflict set (as for [`Mech::lock`]).
    pub cs: ConflictSet<'a>,
}

/// Contention statistics for one mechanism (relaxed counters; cheap enough
/// to keep always on — they are read by the benchmark harness to report
/// admission concurrency).
#[derive(Debug, Default)]
pub struct MechStats {
    /// Total successful acquisitions.
    pub acquisitions: AtomicU64,
    /// Acquisitions that had to wait (parked or spun) at least once. An
    /// acquisition that parks several times before admission still counts
    /// once.
    pub contended: AtomicU64,
    /// Bounded acquisitions that gave up at their deadline.
    pub timeouts: AtomicU64,
    /// Releases refused because the hold counter would have underflowed
    /// (double unlock; see [`Mech::unlock`]).
    pub underflows: AtomicU64,
}

/// Outcome of a bounded acquisition ([`Mech::lock_deadline`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum Acquire {
    /// The mode was taken.
    Acquired,
    /// The deadline elapsed while a conflicting mode stayed held.
    TimedOut,
    /// The caller's probe asked to abandon the wait (deadlock detected).
    Abandoned,
}

/// Caller decision returned from a wait probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Wait {
    /// Keep waiting.
    Continue,
    /// Give up immediately (reported as [`Acquire::Abandoned`]).
    Abandon,
}

/// How long a blocked bounded acquisition sleeps between probes. Probes are
/// where the deadlock watchdog registers and checks for cycles, so this
/// bounds detection latency without touching the uncontended path.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// The three counter representations (see the module docs).
enum Counts {
    /// All hold counts in one 64-bit word; admission is a lock-free CAS.
    Packed(AtomicU64),
    /// All hold counts in one 128-bit word (sixteen 7-bit fields);
    /// admission is a lock-free cmpxchg16b on the native path.
    Dwcas(AtomicU128),
    /// One counter per mode; check-and-increment under the internal mutex
    /// (the paper's Fig. 20 scheme, kept for partitions wider than
    /// [`DWCAS_MODE_LIMIT`]).
    Wide(Box<[AtomicU32]>),
}

/// Bytes no two partitions' mechanisms may share: two 64-byte lines,
/// because the adjacent-line prefetcher fetches them in pairs.
const PARTITION_ALIGN: usize = 128;

/// One locking mechanism: the counters for the modes of one partition.
///
/// Aligned to 128 bytes (`PARTITION_ALIGN`): a `SemLock` keeps its partitions'
/// mechanisms side by side in one slice, and every acquire/release RMWs
/// the partition's admission word and statistics. Commuting modes land in
/// different partitions, so without the alignment two threads that never
/// conflict would still bounce a shared line (+13 % on `cia_2t`, PR 16).
#[repr(align(128))]
pub struct Mech {
    /// `C_l` of Fig. 20 in one of three representations.
    counts: Counts,
    /// Serializes the **wide** representation's check-and-increment and
    /// parks its conflicted waiters. The packed and Dwcas paths never
    /// take it — contended or not, they go through `stack`.
    internal: Mutex<()>,
    cond: Condvar,
    /// Number of threads currently parked on `cond` (wide representation
    /// only); the wide unlocker reads it to skip the mutex when nobody
    /// waits.
    waiters: AtomicU32,
    /// Claim-based waiter stack: the lock-free park/handoff path of the
    /// packed and Dwcas representations.
    stack: WaiterStack,
    strategy: WaitStrategy,
    stats: MechStats,
}

/// A lock-free admission word: four atomic primitives over a
/// [`WordInt`], and — as provided methods — the admission protocol
/// written once on top of them. Private: `AtomicU64` (packed) and
/// [`AtomicU128`] (Dwcas) are the only implementors, they differ only in
/// width, and every memory-ordering claim is made (and model-checked)
/// once per site rather than once per width.
trait AdmitWord {
    /// The integer the word holds.
    type Int: WordInt;
    /// Atomic load.
    fn load(&self, order: Ordering) -> Self::Int;
    /// Atomic weak compare-exchange: `Ok(previous)` / `Err(actual)`.
    fn compare_exchange_weak(
        &self,
        current: Self::Int,
        new: Self::Int,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Self::Int, Self::Int>;
    /// Atomic `fetch_or`, returning the previous word.
    fn fetch_or(&self, bits: Self::Int, order: Ordering) -> Self::Int;
    /// Atomic `fetch_and`, returning the previous word.
    fn fetch_and(&self, bits: Self::Int, order: Ordering) -> Self::Int;

    /// Does `cur` refuse mode `local`: a conflicting count is positive,
    /// or the local field is saturated?
    #[inline]
    fn refuses(cur: Self::Int, local: u32, cs: ConflictSet<'_>) -> bool {
        cur & Self::Int::truncate(cs.mask) != Self::Int::ZERO || field_of(cur, local) == FIELD_MAX
    }

    /// One lock-free admission attempt: check the conflict mask and
    /// increment the local count in a single try-update. Returns `false`
    /// if a conflicting mode is held (or the local field is saturated);
    /// retries only on CAS contention, never on conflict.
    #[inline]
    fn try_admit(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        let one = Self::Int::ONE << field_shift(local);
        // Ordering: the initial load may be Relaxed — admission is decided
        // by the CAS below, which re-validates the whole word.
        let mut cur = self.load(ord::WORD_ADMIT_LOAD);
        loop {
            if Self::refuses(cur, local, cs) {
                return false;
            }
            // Ordering: Acquire on success pairs with the Release
            // decrement in `release_decrement` — reading a word in which every
            // conflicting count is zero happens-after the data writes of
            // the holders that released them, so the critical section
            // cannot observe torn state. Failure needs no ordering: we
            // only retry. (Audited: `word.admit.cas_ok`.)
            match self.compare_exchange_weak(
                cur,
                cur + one,
                ord::WORD_ADMIT_CAS_OK,
                ord::WORD_ADMIT_CAS_FAIL,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// One combined lock-free admission attempt for several modes of this
    /// partition: check the **union** of the members' conflict masks and
    /// apply every increment in a single try-update — one CAS admits (or
    /// refuses) the whole group, so a failed group leaves the word
    /// untouched with nothing to roll back.
    ///
    /// Precondition (checked by the caller, [`Mech::try_lock_group`]):
    /// no member's mode appears in another member's conflict set —
    /// mutually conflicting members must take the sequential fallback,
    /// because the union-mask check runs against the pre-admission word
    /// and would otherwise admit two modes that exclude each other.
    fn try_admit_many(&self, members: &[GroupRequest<'_>]) -> bool {
        let mut mask = Self::Int::ZERO;
        let mut add = Self::Int::ZERO;
        for m in members {
            mask = mask | Self::Int::truncate(m.cs.mask);
            add = add + (Self::Int::ONE << field_shift(m.local));
        }
        // Ordering: as `try_admit` — the CAS re-validates the whole word.
        let mut cur = self.load(ord::WORD_ADMIT_LOAD);
        loop {
            if cur & mask != Self::Int::ZERO {
                return false;
            }
            // Saturation: each member's field must hold its requested
            // increments (duplicate locals are legal and sum).
            for m in members {
                let want = members.iter().filter(|x| x.local == m.local).count() as u64;
                if field_of(cur, m.local) + want > FIELD_MAX {
                    return false;
                }
            }
            // Ordering: the same Acquire/Relaxed pair as the single-mode
            // admit CAS — one successful CAS publishes every member's
            // admission at once. (Audited: `word.admit.cas_ok`.)
            match self.compare_exchange_weak(
                cur,
                cur + add,
                ord::WORD_ADMIT_CAS_OK,
                ord::WORD_ADMIT_CAS_FAIL,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Advisory conflict check — used by the spin strategy between
    /// admission attempts.
    #[inline]
    fn conflicted(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        Self::refuses(self.load(Ordering::Relaxed), local, cs)
    }

    /// Set the waiter-summary bit and report whether the word the
    /// `fetch_or` *returned* still shows a conflict. `false` means the
    /// conflict drained before the bit landed — the caller self-admits
    /// instead of parking (the releaser it raced never saw the bit).
    fn summary_set_and_check(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        // Ordering: Release — the caller's node push (a Release CAS) is
        // program-ordered before this RMW, so a releaser whose decrement
        // reads this bit (directly or through the word's release
        // sequence) also acquires the pushed node when it claims.
        // (Audited: `stack.summary.fetch_or`.)
        let ret = self.fetch_or(waiters_bit(), ord::STACK_SUMMARY_FETCH_OR);
        Self::refuses(ret, local, cs)
    }

    /// Clear the waiter-summary bit (handoff step 1, strictly before the
    /// claim — a pusher's `fetch_or` ordered after this clear re-sets the
    /// bit and nothing erases it again).
    fn summary_clear(&self) {
        // Ordering: Acquire — joins the view of every pusher whose
        // `fetch_or` this RMW follows in the word's modification order,
        // coherence-bounding the claim below so it cannot read a head
        // older than those pushes. (Audited: `stack.summary.clear`.)
        self.fetch_and(!waiters_bit::<Self::Int>(), ord::STACK_SUMMARY_CLEAR);
    }

    /// Is the waiter-summary bit set? Diagnostics only — racy.
    fn summary(&self) -> bool {
        self.load(Ordering::Relaxed) & waiters_bit() != Self::Int::ZERO
    }

    /// CAS-decrement the local field. `Some(had_waiters)` on success —
    /// whether the pre-decrement word carried the summary bit — or `None`
    /// on a refused underflow (double unlock).
    fn release_decrement(&self, local: u32) -> Option<bool> {
        let one = Self::Int::ONE << field_shift(local);
        let mut cur = self.load(ord::WORD_RELEASE_LOAD);
        loop {
            if field_of(cur, local) == 0 {
                return None;
            }
            // Ordering: Release — pairs with the Acquire admission CAS
            // (data written under the mode is visible to the next
            // conflicting admitter). No Acquire half: the view join that
            // lets the claim find every counted pusher's node happens at
            // the handoff's Acquire summary clear. The subtraction cannot
            // borrow out of the field — it was checked non-zero on this
            // very value — so neighbouring counts and the summary bit
            // pass through untouched. (Audited: `word.release.cas_ok`.)
            match self.compare_exchange_weak(
                cur,
                cur - one,
                ord::WORD_RELEASE_CAS_OK,
                ord::WORD_RELEASE_CAS_FAIL,
            ) {
                Ok(prev) => return Some(prev & waiters_bit() != Self::Int::ZERO),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Hold count of one mode. Ordering: Acquire — pairs with the Release
    /// in `release_decrement` so a zero observed here happens-after the
    /// releasing holders' writes (quiescence checks read data after
    /// checking this).
    fn count(&self, local: u32) -> u64 {
        field_of(self.load(Ordering::Acquire), local)
    }

    /// Sum of every field's hold count (Acquire, as in `count`).
    fn held_total(&self) -> u64 {
        let cur = self.load(Ordering::Acquire);
        (0..Self::Int::FIELDS as u32)
            .map(|l| field_of(cur, l))
            .sum()
    }

    /// The locals among `conflicts` whose count is positive — a racy
    /// telemetry sample.
    fn held_among(&self, conflicts: &[u32]) -> Vec<u32> {
        let cur = self.load(Ordering::Relaxed);
        conflicts
            .iter()
            .copied()
            .filter(|&c| field_of(cur, c) > 0)
            .collect()
    }
}

/// Forward the four primitives of [`AdmitWord`] to an atomic type's own
/// inherent methods of the same names.
macro_rules! admit_word {
    ($atomic:ty, $int:ty) => {
        impl AdmitWord for $atomic {
            type Int = $int;
            #[inline]
            fn load(&self, order: Ordering) -> $int {
                <$atomic>::load(self, order)
            }
            #[inline]
            fn compare_exchange_weak(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                <$atomic>::compare_exchange_weak(self, current, new, success, failure)
            }
            #[inline]
            fn fetch_or(&self, bits: $int, order: Ordering) -> $int {
                <$atomic>::fetch_or(self, bits, order)
            }
            #[inline]
            fn fetch_and(&self, bits: $int, order: Ordering) -> $int {
                <$atomic>::fetch_and(self, bits, order)
            }
        }
    };
}

admit_word!(AtomicU64, u64);
admit_word!(AtomicU128, u128);

/// How many further admission tries a refused blocking acquisition makes
/// before it parks. Chosen on `server_hot` (two workers, two shards,
/// Zipf 0.99, one 592-mode wide partition per shard): conflicts there
/// last about as long as the critical section, so re-trying for a few
/// microseconds beats a futex sleep and wake — 0.94 M → 1.70 M ops/s
/// against parking at once, with `one_worker_ops_s` and `cia_*`
/// unchanged (EXPERIMENTS.md "Admission cull").
pub const OPTIMISTIC_PROBES: u32 = 32;

/// Cap of the probe phase's doubling `spin_loop` pause (1, 2, 4, … 64,
/// then 64 until the budget is spent).
const PROBE_PAUSE_CAP: u32 = 1 << 6;

/// The probe phase's budget and pause: [`OPTIMISTIC_PROBES`] pauses that
/// double from one `spin_loop` up to [`PROBE_PAUSE_CAP`].
struct ProbeBackoff {
    left: u32,
    pause: u32,
}

impl ProbeBackoff {
    fn new() -> ProbeBackoff {
        ProbeBackoff {
            left: OPTIMISTIC_PROBES,
            pause: 1,
        }
    }

    /// Pause ahead of the next probe; `false` once the budget is spent.
    fn pause(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        for _ in 0..self.pause {
            std::hint::spin_loop();
        }
        if self.pause < PROBE_PAUSE_CAP {
            self.pause <<= 1;
        }
        true
    }
}

// Layout guard: a `SemLock` keeps its partitions' mechanisms side by side
// in one slice; dropping or weakening the `repr(align)` on `Mech` would put
// neighbouring partitions back on one line without failing any test.
const _: () = {
    assert!(std::mem::align_of::<Mech>() >= PARTITION_ALIGN);
    assert!(std::mem::size_of::<Mech>().is_multiple_of(PARTITION_ALIGN));
};

impl Mech {
    /// Create a mechanism for a partition with `modes` locking modes,
    /// choosing the representation from the mode count
    /// ([`AdmissionBackend::Auto`]).
    pub fn new(modes: usize, strategy: WaitStrategy) -> Mech {
        Mech::with_backend(modes, strategy, AdmissionBackend::Auto)
    }

    /// Create with an explicit counter representation (tests and the A/B
    /// benchmark; [`AdmissionBackend::Auto`] is right everywhere else).
    ///
    /// # Panics
    /// If `backend` is `Packed` or `Dwcas` and `modes` exceeds its limit.
    pub fn with_backend(modes: usize, strategy: WaitStrategy, backend: AdmissionBackend) -> Mech {
        use AdmissionBackend::{Auto, Dwcas, Packed, Wide};
        let counts = match backend {
            Auto | Packed if modes <= PACKED_MODE_LIMIT => Counts::Packed(AtomicU64::new(0)),
            // Auto picks Dwcas only when the 128-bit word is genuinely
            // lock-free on this build+machine; a spinlocked fallback word
            // would be strictly worse than the wide mutex path it
            // replaces. Forced Dwcas works on any build (CI's
            // no-default-features job runs the whole suite through the
            // fallback).
            Auto | Dwcas
                if modes <= DWCAS_MODE_LIMIT
                    && (backend == Dwcas || crate::dwcas::dwcas_available()) =>
            {
                Counts::Dwcas(AtomicU128::new(0))
            }
            Auto | Wide => Counts::Wide((0..modes).map(|_| AtomicU32::new(0)).collect()),
            Packed => {
                panic!("packed layout supports at most {PACKED_MODE_LIMIT} modes, got {modes}")
            }
            Dwcas => panic!("dwcas layout supports at most {DWCAS_MODE_LIMIT} modes, got {modes}"),
        };
        Mech {
            counts,
            internal: Mutex::new(()),
            cond: Condvar::new(),
            waiters: AtomicU32::new(0),
            stack: WaiterStack::new(),
            strategy,
            stats: MechStats::default(),
        }
    }

    /// The counter representation in use — never
    /// [`AdmissionBackend::Auto`] (diagnostics / tests).
    pub fn backend(&self) -> AdmissionBackend {
        match self.counts {
            Counts::Packed(_) => AdmissionBackend::Packed,
            Counts::Dwcas(_) => AdmissionBackend::Dwcas,
            Counts::Wide(_) => AdmissionBackend::Wide,
        }
    }

    /// Is the waiter-summary bit (packed/Dwcas) or waiter count (wide)
    /// currently published? Diagnostics/tests only — racy by nature.
    pub fn waiter_summary(&self) -> bool {
        match &self.counts {
            Counts::Packed(word) => word.summary(),
            Counts::Dwcas(word) => word.summary(),
            Counts::Wide(_) => self.waiters.load(Ordering::Relaxed) > 0,
        }
    }

    /// Waiter-stack nodes currently alive (allocated, not yet freed).
    /// Zero at quiescence — the stress suite's leak invariant.
    pub fn live_waiter_nodes(&self) -> u64 {
        self.stack.live_nodes()
    }

    // ------------------------------------------------------------------
    // The acquisition protocol: admit try → bounded probes → park
    // ------------------------------------------------------------------

    /// One admission attempt: never waits, counts nothing. A refusal has
    /// no side effect — one failed CAS on a word, one mutex-guarded check
    /// on the wide counters; no waiter node, summary bit or waiter count
    /// is ever published by it.
    #[inline]
    fn try_admit(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        match &self.counts {
            Counts::Packed(word) => word.try_admit(local, cs),
            Counts::Dwcas(word) => word.try_admit(local, cs),
            Counts::Wide(counts) => self.try_admit_wide(counts, local, cs),
        }
    }

    /// Advisory conflict check — what the spin strategy polls between
    /// admission attempts.
    fn conflicted(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        match &self.counts {
            Counts::Packed(word) => word.conflicted(local, cs),
            Counts::Dwcas(word) => word.conflicted(local, cs),
            Counts::Wide(counts) => Self::conflicted_wide(counts, cs),
        }
    }

    /// Acquire the mode with local index `local`, whose conflict set `cs`
    /// was precomputed by the [`crate::mode::ModeTable`]. Blocks until
    /// admission is legal. Returns whether the first admission attempt
    /// was refused (used by the telemetry layer to classify the
    /// admission; ignorable otherwise).
    ///
    /// Under [`WaitStrategy::Block`] a refused acquisition re-tries up to
    /// [`OPTIMISTIC_PROBES`] times with a short doubling pause — each try
    /// as side-effect-free as [`Mech::try_lock`] — and only then parks.
    ///
    /// Statistics: one acquisition, plus one contended acquisition if the
    /// first attempt was refused, however long the wait then was.
    pub fn lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        let waited = !self.try_admit(local, cs);
        if waited {
            self.lock_slow(local, cs);
        }
        self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        if waited {
            self.stats.contended.fetch_add(1, Ordering::Relaxed);
        }
        waited
    }

    /// Everything [`Mech::lock`] does after a refused first attempt.
    /// Outlined so the uncontended body stays small enough to inline.
    #[cold]
    fn lock_slow(&self, local: u32, cs: ConflictSet<'_>) {
        if self.strategy == WaitStrategy::Spin {
            // Fig. 20's `goto start` loop.
            loop {
                while self.conflicted(local, cs) {
                    std::hint::spin_loop();
                }
                if self.try_admit(local, cs) {
                    return;
                }
            }
        }
        let mut probes = ProbeBackoff::new();
        while probes.pause() {
            if self.try_admit(local, cs) {
                return;
            }
        }
        match &self.counts {
            Counts::Packed(word) => self.park_stack(word, local, cs),
            Counts::Dwcas(word) => self.park_stack(word, local, cs),
            Counts::Wide(counts) => self.park_wide(counts, local, cs),
        }
    }

    /// Try to acquire without waiting; returns whether the mode was taken.
    ///
    /// Side-effect-free on failure: a failed probe never pushes a waiter
    /// node, never touches the waiter-summary bit and never registers in
    /// the wide waiter count, so it cannot make a release take the
    /// handoff path or wake an unrelated parked waiter (the
    /// `WaitBudget::DontWait` regression in `tests/fastpath.rs` pins this
    /// down).
    pub fn try_lock(&self, local: u32, cs: ConflictSet<'_>) -> bool {
        let taken = self.try_admit(local, cs);
        if taken {
            self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        }
        taken
    }

    /// All-or-nothing batched admission of several modes of this
    /// partition. Never blocks. Returns whether the whole group was
    /// admitted; on `false` **no member remains admitted**.
    ///
    /// On the packed and Dwcas layouts a group whose members do not
    /// mutually conflict is admitted (or refused) by **one CAS** over the
    /// union of the members' conflict masks — a failed group costs one
    /// failed CAS and leaves nothing to roll back, exactly like
    /// [`Mech::try_lock`]'s side-effect-free failure. Mutually
    /// conflicting members and the wide layout take a sequential
    /// try-with-rollback loop instead: members admit in order, and the
    /// first refusal rolls the already-admitted prefix back in reverse
    /// order through the full release path (so a rollback decrement that
    /// observes the waiter-summary bit still runs the claim-based
    /// handoff — no lost wakeups).
    ///
    /// Statistics: `members.len()` acquisitions on success, nothing on
    /// failure (a rolled-back partial admission is not an acquisition).
    pub fn try_lock_group(&self, members: &[GroupRequest<'_>]) -> bool {
        // The combined-CAS fast path checks the union mask against the
        // pre-admission word, so it is only sound when no member's mode
        // appears in another member's conflict set (a group may not
        // exclude itself). Mutually conflicting members fall back to the
        // sequential loop, whose per-member checks see the group's own
        // earlier increments and refuse correctly.
        let mutual = || {
            members.iter().enumerate().any(|(i, a)| {
                members
                    .iter()
                    .enumerate()
                    .any(|(j, b)| i != j && a.cs.locals().contains(&b.local))
            })
        };
        let taken = match (members, &self.counts) {
            ([], _) => true,
            ([m], _) => self.try_admit(m.local, m.cs),
            (_, Counts::Packed(word)) if !mutual() => word.try_admit_many(members),
            (_, Counts::Dwcas(word)) if !mutual() => word.try_admit_many(members),
            _ => self.try_lock_group_seq(members),
        };
        if taken {
            self.stats
                .acquisitions
                .fetch_add(members.len() as u64, Ordering::Relaxed);
        }
        taken
    }

    /// Sequential group admission with reverse-order rollback: the loop
    /// fallback behind [`Mech::try_lock_group`] (wide layout, or mutually
    /// conflicting members on any layout).
    fn try_lock_group_seq(&self, members: &[GroupRequest<'_>]) -> bool {
        for (i, m) in members.iter().enumerate() {
            if !self.try_admit(m.local, m.cs) {
                for m2 in members[..i].iter().rev() {
                    // Cannot underflow (this group holds the count), and
                    // must run the full release path so a decrement that
                    // carried the waiter-summary bit performs the handoff.
                    let released = self.unlock(m2.local);
                    debug_assert!(released, "group rollback released an unheld mode");
                }
                return false;
            }
        }
        true
    }

    /// Bounded acquisition: like [`Mech::lock`], but gives up once
    /// `deadline` passes. While parked, `probe` is invoked roughly every
    /// [`PROBE_INTERVAL`] (after the wait has already lasted one slice);
    /// returning [`Wait::Abandon`] cancels the acquisition — this is the
    /// hook the deadlock watchdog uses. The uncontended path never reads
    /// the clock or calls `probe` (on the packed representation it is a
    /// single CAS that never touches the internal mutex).
    ///
    /// A refused first attempt reads the clock before every further one:
    /// an already-expired deadline is a single attempt and then
    /// [`Acquire::TimedOut`] — no re-try, no waiter published — so a
    /// retry storm of near-expired deadlines degrades to the cost of one
    /// failed admission, not to churn on the park path (every pushed node
    /// makes the next release claim and sweep it). Otherwise the blocking
    /// strategy runs the probe phase of [`Mech::lock`] and then sleeps in
    /// timed slices; the spinning strategy backs off exponentially (spin
    /// hints, then yields) between admission re-checks.
    ///
    /// Statistics: `Acquired` counts as [`Mech::lock`] does, `TimedOut`
    /// one timeout, `Abandoned` nothing (the watchdog's own accounting
    /// covers aborts).
    pub fn lock_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let waited = !self.try_admit(local, cs);
        let outcome = if waited {
            self.lock_deadline_slow(local, cs, deadline, probe)
        } else {
            Acquire::Acquired
        };
        match outcome {
            Acquire::Acquired => {
                self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
                if waited {
                    self.stats.contended.fetch_add(1, Ordering::Relaxed);
                }
            }
            Acquire::TimedOut => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Acquire::Abandoned => {}
        }
        outcome
    }

    /// Everything [`Mech::lock_deadline`] does after a refused first
    /// attempt.
    #[cold]
    fn lock_deadline_slow(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        if self.strategy == WaitStrategy::Spin {
            return self.spin_deadline(local, cs, deadline, probe);
        }
        let mut probes = ProbeBackoff::new();
        loop {
            if Instant::now() >= deadline {
                return Acquire::TimedOut;
            }
            if !probes.pause() {
                break;
            }
            if self.try_admit(local, cs) {
                return Acquire::Acquired;
            }
        }
        match &self.counts {
            Counts::Packed(word) => self.park_deadline_stack(word, local, cs, deadline, probe),
            Counts::Dwcas(word) => self.park_deadline_stack(word, local, cs, deadline, probe),
            Counts::Wide(counts) => self.park_deadline_wide(counts, local, cs, deadline, probe),
        }
    }

    /// Bounded spinning wait after a refused attempt.
    fn spin_deadline(
        &self,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        loop {
            let mut backoff: u32 = 1;
            let mut next_probe = Instant::now() + PROBE_INTERVAL;
            while self.conflicted(local, cs) {
                let now = Instant::now();
                if now >= deadline {
                    return Acquire::TimedOut;
                }
                for _ in 0..backoff {
                    std::hint::spin_loop();
                }
                if backoff < 1 << 12 {
                    backoff <<= 1;
                } else {
                    std::thread::yield_now();
                }
                if now >= next_probe {
                    if probe() == Wait::Abandon {
                        return Acquire::Abandoned;
                    }
                    next_probe = now + PROBE_INTERVAL;
                }
            }
            if self.try_admit(local, cs) {
                return Acquire::Acquired;
            }
        }
    }

    /// Release one hold on the mode with local index `local`.
    ///
    /// A release that would underflow the counter (double unlock) is
    /// **refused in every build**: the counter is left untouched (instead
    /// of silently wrapping, which would deny every future conflicting
    /// admission), the refusal is counted in [`MechStats::underflows`],
    /// and `false` is returned so the caller can poison the instance and
    /// surface a structured error
    /// ([`crate::error::LockError::UnlockUnderflow`]).
    #[must_use = "a false return means a refused double unlock; the caller must poison/report"]
    pub fn unlock(&self, local: u32) -> bool {
        let released = match &self.counts {
            Counts::Packed(word) => self.release_stack(word, local),
            Counts::Dwcas(word) => self.release_stack(word, local),
            Counts::Wide(counts) => self.release_wide(counts, local),
        };
        if !released {
            self.stats.underflows.fetch_add(1, Ordering::Relaxed);
        }
        released
    }

    /// Local indices among `conflicts` whose hold counter is currently
    /// positive — a racy sample of who this acquisition would wait for.
    /// Telemetry-only (feeds the conflict-pair matrix); never consulted
    /// for admission decisions.
    pub fn held_conflicting(&self, conflicts: &[u32]) -> Vec<u32> {
        match &self.counts {
            Counts::Packed(word) => word.held_among(conflicts),
            Counts::Dwcas(word) => word.held_among(conflicts),
            Counts::Wide(counts) => conflicts
                .iter()
                .copied()
                .filter(|&c| counts[c as usize].load(Ordering::Relaxed) > 0)
                .collect(),
        }
    }

    /// Current hold count of a mode (diagnostics / tests).
    ///
    /// Ordering: Acquire — pairs with the Release in the unlock paths so
    /// a zero observed here happens-after the releasing holders' writes
    /// (quiescence checks read data after checking this).
    pub fn count(&self, local: u32) -> u32 {
        match &self.counts {
            Counts::Packed(word) => word.count(local) as u32,
            Counts::Dwcas(word) => word.count(local) as u32,
            Counts::Wide(counts) => counts[local as usize].load(Ordering::Acquire),
        }
    }

    /// Sum of all mode hold counts (quiescence checks: zero means no
    /// transaction holds any mode of this mechanism). Acquire, as in
    /// [`Mech::count`].
    pub fn held_total(&self) -> u64 {
        match &self.counts {
            Counts::Packed(word) => word.held_total(),
            Counts::Dwcas(word) => word.held_total(),
            Counts::Wide(counts) => counts
                .iter()
                .map(|c| c.load(Ordering::Acquire) as u64)
                .sum(),
        }
    }

    /// Contention statistics.
    pub fn stats(&self) -> &MechStats {
        &self.stats
    }
}

// ----------------------------------------------------------------------
// Park / handoff over a lock-free admission word (packed and Dwcas,
// generic over the word)
// ----------------------------------------------------------------------

impl Mech {
    /// Claim-based handoff, run by a releaser whose decrement observed
    /// the waiter-summary bit. Never touches a shared mutex:
    ///
    /// 1. **clear** the summary bit (Acquire — joins every already-counted
    ///    bit-setter's view);
    /// 2. **claim** the whole stack (one CAS swapping the head to empty);
    /// 3. **wake** the claimed batch; each waiter re-runs admission and
    ///    either enters or re-pushes (a fresh episode).
    ///
    /// Clearing *before* claiming is what makes the protocol
    /// self-stabilizing. Every op on the admission word is an RMW, so any
    /// pusher's `fetch_or` is totally ordered against this clear: if it
    /// came first, the Acquire clear joins its view and the claim is
    /// coherence-bounded to find its node; if it comes after, it re-sets
    /// the bit and — with no republish step left to race against — the
    /// bit *stays* set for the next releaser. Either way no release can
    /// miss both the bit and the batch, and at quiescence the last word
    /// op is always a decrement or a clear, so the bit provably ends 0.
    /// (The claim-then-clear order used by earlier drafts has a genuine
    /// hole here: a rival's decrement landing between the clear and the
    /// republish sees no bit and no batch, and the republish itself can
    /// be the final word op — the model checker found both.)
    #[cold]
    fn handoff<W: AdmitWord>(&self, word: &W) {
        word.summary_clear();
        self.stack.claim().wake_all();
    }

    /// Lock-free release: CAS-decrement the local count (refusing
    /// underflow without disturbing neighbouring fields), then hand off
    /// wakeups if the word carried the waiter-summary bit.
    fn release_stack<W: AdmitWord>(&self, word: &W, local: u32) -> bool {
        match word.release_decrement(local) {
            Some(had_waiters) => {
                if had_waiters {
                    self.handoff(word);
                }
                true
            }
            None => false,
        }
    }

    /// Park on the claim stack until admitted. One *episode* per push:
    /// publish the node, publish the summary bit, re-check admission from
    /// the `fetch_or`'s own returned word, park, and retry admission on
    /// the handoff wakeup — re-pushing (a fresh episode) when a rival won
    /// the race.
    fn park_stack<W: AdmitWord>(&self, word: &W, local: u32, cs: ConflictSet<'_>) {
        let node = self.stack.alloc();
        loop {
            node.prepare();
            self.stack.push(&node);
            // Push first, then set the bit, then re-check admission
            // against the word the `fetch_or` *returned*. This closes the
            // lost-wakeup race with a releaser that decremented between
            // our failed admission and the bit landing: either its
            // decrement saw the bit (it claims the stack and wakes us) or
            // it is ordered before the `fetch_or` in the word's
            // modification order — and then the returned word shows the
            // conflict drained, and we self-admit instead of parking.
            // (Our node stays behind as a stale entry the next claim
            // sweeps.)
            if !word.summary_set_and_check(local, cs) && word.try_admit(local, cs) {
                return;
            }
            node.park();
            if word.try_admit(local, cs) {
                return;
            }
        }
    }

    /// Bounded form of [`Mech::park_stack`]: the same episode structure,
    /// parking in [`PROBE_INTERVAL`] slices with deadline checks and
    /// watchdog probes between slices.
    fn park_deadline_stack<W: AdmitWord>(
        &self,
        word: &W,
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let node = self.stack.alloc();
        'episode: loop {
            node.prepare();
            self.stack.push(&node);
            if !word.summary_set_and_check(local, cs) && word.try_admit(local, cs) {
                break Acquire::Acquired;
            }
            loop {
                let now = Instant::now();
                if now >= deadline {
                    // Admission still wins over an expired deadline — one
                    // last admit try before giving up.
                    break 'episode if word.try_admit(local, cs) {
                        Acquire::Acquired
                    } else {
                        Acquire::TimedOut
                    };
                }
                let slice = PROBE_INTERVAL.min(deadline - now);
                if node.park_for(slice) {
                    // Handoff received: the claimer removed our node, so
                    // admission failure means a rival won — start a fresh
                    // episode with a re-push.
                    if word.try_admit(local, cs) {
                        break 'episode Acquire::Acquired;
                    }
                    continue 'episode;
                }
                // Timed-out wake: the node is still in the stack, so do
                // NOT re-push — re-park the same node after the checks.
                // (Only a notified wake may re-push; that guarantees
                // every re-push happens after the claimer's next-pointer
                // read, which is what keeps the chain walk sound.)
                if word.try_admit(local, cs) {
                    break 'episode Acquire::Acquired;
                }
                // Deadline before probe: the watchdog's graph scan must
                // not stretch a wait past its deadline.
                if Instant::now() >= deadline {
                    break 'episode Acquire::TimedOut;
                }
                if probe() == Wait::Abandon {
                    break 'episode Acquire::Abandoned;
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Wide counters (Fig. 20): check-then-increment under the internal
// mutex, waiters parked on its condvar
// ----------------------------------------------------------------------

impl Mech {
    /// Is any conflicting mode currently held? (Fig. 20 lines 3–4 / 6–7;
    /// wide representation only.)
    ///
    /// Ordering: SeqCst, and genuinely so. In the blocking release
    /// protocol the waiter performs `waiters.fetch_add` *then* loads the
    /// counters here, while the releaser performs `counts.fetch_sub` *then*
    /// loads `waiters` — the classic store-buffering shape. If either side
    /// could reorder its two accesses, the waiter might read a stale
    /// positive count while the releaser reads a stale zero waiter count,
    /// and the wakeup would be lost. All four accesses are SeqCst so the
    /// single total order forbids that outcome. (The admission words avoid
    /// this entirely by keeping counts and the waiter bit in one word.)
    #[inline]
    fn conflicted_wide(counts: &[AtomicU32], cs: ConflictSet<'_>) -> bool {
        cs.locals
            .iter()
            .any(|&c| counts[c as usize].load(ord::WIDE_CONFLICT_LOAD) > 0)
    }

    /// One admission attempt on the wide counters: check-then-increment
    /// under the internal mutex, no waiter registration.
    fn try_admit_wide(&self, counts: &[AtomicU32], local: u32, cs: ConflictSet<'_>) -> bool {
        let _guard = self.internal.lock();
        if Self::conflicted_wide(counts, cs) {
            return false;
        }
        // Ordering: Relaxed — the increment is published to other
        // admitters by the internal mutex (their checks run under it
        // too), and releasers observe it through the atomic RMW in
        // `release_wide`, which always sees the latest value in the
        // counter's modification order.
        counts[local as usize].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Park on the internal condvar until admitted.
    fn park_wide(&self, counts: &[AtomicU32], local: u32, cs: ConflictSet<'_>) {
        let mut guard = self.internal.lock();
        loop {
            // Register as a waiter *before* the check so that an
            // unlocker that decrements after our check is guaranteed to
            // observe us and notify. Ordering: SeqCst — see
            // `conflicted_wide` for the store-buffering argument this
            // participates in. (Audited: `wide.waiter.rmw`.)
            self.waiters.fetch_add(1, ord::WIDE_WAITER_RMW);
            if !Self::conflicted_wide(counts, cs) {
                self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                break;
            }
            self.cond.wait(&mut guard);
            self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
        }
        // Ordering: Relaxed — see `try_admit_wide`.
        counts[local as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Bounded form of [`Mech::park_wide`]: waits in [`PROBE_INTERVAL`]
    /// slices with deadline checks and watchdog probes between slices.
    fn park_deadline_wide(
        &self,
        counts: &[AtomicU32],
        local: u32,
        cs: ConflictSet<'_>,
        deadline: Instant,
        probe: &mut dyn FnMut() -> Wait,
    ) -> Acquire {
        let mut guard = self.internal.lock();
        loop {
            // SeqCst: store-buffering pair with `release_wide` — see
            // `conflicted_wide`. (Audited: `wide.waiter.rmw`.)
            self.waiters.fetch_add(1, ord::WIDE_WAITER_RMW);
            if !Self::conflicted_wide(counts, cs) {
                self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                // Ordering: Relaxed — see `try_admit_wide`.
                counts[local as usize].fetch_add(1, Ordering::Relaxed);
                break Acquire::Acquired;
            }
            let now = Instant::now();
            if now >= deadline {
                self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
                break Acquire::TimedOut;
            }
            let slice = PROBE_INTERVAL.min(deadline - now);
            self.cond.wait_for(&mut guard, slice);
            self.waiters.fetch_sub(1, ord::WIDE_WAITER_RMW);
            // As on the stack path: deadline before probe, with a final
            // admit try (we hold `internal`, so the check-then-increment
            // is the audited `try_admit_wide` admission).
            if Instant::now() >= deadline {
                break if !Self::conflicted_wide(counts, cs) {
                    // Ordering: Relaxed — see `try_admit_wide`.
                    counts[local as usize].fetch_add(1, Ordering::Relaxed);
                    Acquire::Acquired
                } else {
                    Acquire::TimedOut
                };
            }
            if probe() == Wait::Abandon {
                break Acquire::Abandoned;
            }
        }
    }

    /// Wide release: checked decrement, then notify if a waiter is
    /// registered. `false` on a refused underflow.
    fn release_wide(&self, counts: &[AtomicU32], local: u32) -> bool {
        // Checked decrement via CAS, mirroring the word path: a double
        // unlock is refused without ever publishing a transient wrapped
        // value. (The previous `fetch_sub`-then-restore made u32::MAX
        // momentarily visible to concurrent `conflicted_wide` readers,
        // which could spuriously park an admissible acquirer until the
        // restore landed.)
        let c = &counts[local as usize];
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            // Ordering: SeqCst on the successful decrement — Release
            // alone pairs with the Acquire-or-stronger loads in
            // `conflicted_wide` for data visibility, but this RMW is also
            // the first half of the store-buffering pair with the
            // `waiters` load below (see `conflicted_wide`), which needs
            // the total SeqCst order. (Audited: `wide.release.rmw`.)
            match c.compare_exchange_weak(cur, cur - 1, ord::WIDE_RELEASE_RMW, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // Ordering: SeqCst — second half of the store-buffering pair
        // (decrement-then-read-waiters vs the waiter's
        // register-then-read-counts). (Audited: `wide.waiters.load`.)
        if self.waiters.load(ord::WIDE_WAITERS_LOAD) > 0 {
            // Serialize with waiters' register-then-check so the notify
            // cannot slip between their check and their wait.
            let _g = self.internal.lock();
            self.cond.notify_all();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    /// Every test below runs against all three representations: the
    /// packed single-word fast path, the 128-bit Dwcas word (native or
    /// portable fallback, whichever this build carries), and the wide
    /// counters-under-mutex fallback.
    fn layouts() -> [AdmissionBackend; 3] {
        [
            AdmissionBackend::Packed,
            AdmissionBackend::Dwcas,
            AdmissionBackend::Wide,
        ]
    }

    /// Two modes that conflict with each other but not themselves — like
    /// two halves of a read–write interaction.
    fn cross_conflict() -> (Vec<u32>, Vec<u32>) {
        (vec![1], vec![0])
    }

    #[test]
    fn auto_picks_the_representation_from_the_mode_count() {
        // The partition shapes the repo's workloads produce (1: every
        // `cia_*` partition, 2: cache, 8: intruder, 9: gossip, 44: graph,
        // 592: every `server_*` shard) and the two limits' neighbours.
        // 9..=16 modes: the Dwcas word — when this build+machine serves
        // it lock-free; the wide counters otherwise.
        let mid = if crate::dwcas::dwcas_available() {
            AdmissionBackend::Dwcas
        } else {
            AdmissionBackend::Wide
        };
        for (modes, expected) in [
            (1, AdmissionBackend::Packed),
            (2, AdmissionBackend::Packed),
            (8, AdmissionBackend::Packed),
            (9, mid),
            (16, mid),
            (17, AdmissionBackend::Wide),
            (44, AdmissionBackend::Wide),
            (592, AdmissionBackend::Wide),
        ] {
            assert_eq!(
                Mech::new(modes, WaitStrategy::Block).backend(),
                expected,
                "{modes} modes"
            );
        }
    }

    #[test]
    fn compatible_modes_acquire_concurrently() {
        for layout in layouts() {
            let m = Mech::with_backend(2, WaitStrategy::Block, layout);
            // Mode 0 conflicts with nothing here.
            m.lock(0, ConflictSet::new(&[]));
            m.lock(0, ConflictSet::new(&[]));
            assert_eq!(m.count(0), 2);
            assert!(m.unlock(0));
            assert!(m.unlock(0));
            assert_eq!(m.count(0), 0);
        }
    }

    #[test]
    fn self_conflicting_mode_is_exclusive() {
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            m.lock(0, ConflictSet::new(&[0]));
            assert!(!m.try_lock(0, ConflictSet::new(&[0])));
            assert!(m.unlock(0));
            assert!(m.try_lock(0, ConflictSet::new(&[0])));
            assert!(m.unlock(0));
        }
    }

    #[test]
    fn conflicting_mode_blocks_until_release() {
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
            let (c0, c1) = cross_conflict();
            m.lock(0, ConflictSet::new(&c0));
            let got = Arc::new(AtomicBool::new(false));
            let t = {
                let m = m.clone();
                let got = got.clone();
                let c1 = c1.clone();
                std::thread::spawn(move || {
                    m.lock(1, ConflictSet::new(&c1));
                    got.store(true, Ordering::SeqCst);
                    assert!(m.unlock(1));
                })
            };
            std::thread::sleep(Duration::from_millis(50));
            assert!(!got.load(Ordering::SeqCst), "mode 1 admitted while 0 held");
            assert!(m.unlock(0));
            t.join().unwrap();
            assert!(got.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn refused_lock_probes_then_parks_and_counts_once() {
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
            let (c0, c1) = cross_conflict();
            assert!(m.try_lock(0, ConflictSet::new(&c0)));
            let waiter = {
                let m = m.clone();
                std::thread::spawn(move || {
                    let waited = m.lock(1, ConflictSet::new(&c1));
                    assert!(m.unlock(1));
                    waited
                })
            };
            // The conflict outlives the probe budget, so the waiter must
            // publish itself (summary bit / waiter count) and park; only
            // then does the holder release.
            let deadline = Instant::now() + Duration::from_secs(30);
            while !m.waiter_summary() {
                assert!(Instant::now() < deadline, "{layout:?}: waiter never parked");
                std::thread::yield_now();
            }
            assert_eq!(
                m.count(1),
                0,
                "{layout:?}: admitted against a held conflict"
            );
            assert!(m.unlock(0));
            assert!(
                waiter.join().unwrap(),
                "{layout:?}: refused lock reported no wait"
            );
            assert_eq!(m.held_total(), 0, "{layout:?}");
            assert_eq!(m.stats().acquisitions.load(Ordering::Relaxed), 2);
            assert_eq!(m.stats().contended.load(Ordering::Relaxed), 1);
            assert_eq!(m.live_waiter_nodes(), 0, "{layout:?}: waiter nodes leaked");
            assert!(!m.waiter_summary(), "{layout:?}: summary left published");
        }
    }

    #[test]
    fn uncontended_lock_is_one_attempt() {
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            assert!(!m.lock(0, ConflictSet::new(&[0])), "{layout:?}");
            assert!(
                !m.waiter_summary(),
                "{layout:?}: a free mode published a waiter"
            );
            assert!(m.unlock(0));
            assert_eq!(m.stats().acquisitions.load(Ordering::Relaxed), 1);
            assert_eq!(m.stats().contended.load(Ordering::Relaxed), 0);
            assert_eq!(m.live_waiter_nodes(), 0, "{layout:?}");
        }
    }

    #[test]
    fn spin_strategy_also_excludes() {
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(1, WaitStrategy::Spin, layout));
            m.lock(0, ConflictSet::new(&[0]));
            let m2 = m.clone();
            let t = std::thread::spawn(move || {
                m2.lock(0, ConflictSet::new(&[0]));
                assert!(m2.unlock(0));
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(m.unlock(0));
            t.join().unwrap();
            assert_eq!(m.count(0), 0);
        }
    }

    #[test]
    fn stress_mutual_exclusion_invariant() {
        // Two cross-conflicting modes: counts must never both be positive.
        // We can't observe both atomically from outside, so instead each
        // thread asserts the other's count is zero while it holds its mode.
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
            let iters = 2_000;
            let mut handles = Vec::new();
            for mode in 0..2u32 {
                let m = m.clone();
                handles.push(std::thread::spawn(move || {
                    let conflicts = [1 - mode];
                    for _ in 0..iters {
                        m.lock(mode, ConflictSet::new(&conflicts));
                        assert_eq!(m.count(1 - mode), 0, "both modes held at once");
                        assert!(m.unlock(mode));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(m.count(0) + m.count(1), 0);
            assert_eq!(
                m.stats().acquisitions.load(Ordering::Relaxed),
                2 * iters as u64
            );
        }
    }

    #[test]
    fn lock_deadline_times_out_and_counts() {
        for layout in layouts() {
            for strategy in [WaitStrategy::Block, WaitStrategy::Spin] {
                let m = Mech::with_backend(1, strategy, layout);
                m.lock(0, ConflictSet::new(&[0]));
                let start = std::time::Instant::now();
                let out = m.lock_deadline(
                    0,
                    ConflictSet::new(&[0]),
                    start + Duration::from_millis(30),
                    &mut || Wait::Continue,
                );
                assert_eq!(out, Acquire::TimedOut, "{strategy:?} {layout:?}");
                assert!(
                    start.elapsed() >= Duration::from_millis(25),
                    "{strategy:?} {layout:?}"
                );
                assert_eq!(m.stats().timeouts.load(Ordering::Relaxed), 1);
                assert_eq!(m.count(0), 1, "failed acquisition must not leak holds");
                assert!(m.unlock(0));
                assert_eq!(m.held_total(), 0);
            }
        }
    }

    #[test]
    fn lock_deadline_acquires_uncontended_without_probing() {
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            let mut probed = false;
            let out = m.lock_deadline(
                0,
                ConflictSet::new(&[0]),
                std::time::Instant::now() + Duration::from_secs(1),
                &mut || {
                    probed = true;
                    Wait::Continue
                },
            );
            assert_eq!(out, Acquire::Acquired);
            assert!(!probed, "uncontended path must not consult the probe");
            assert!(m.unlock(0));
        }
    }

    #[test]
    fn lock_deadline_succeeds_once_conflicting_mode_drains() {
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
            let (c0, _) = cross_conflict();
            m.lock(0, ConflictSet::new(&c0));
            let m2 = m.clone();
            let t = std::thread::spawn(move || {
                m2.lock_deadline(
                    1,
                    ConflictSet::new(&[0]),
                    std::time::Instant::now() + Duration::from_secs(5),
                    &mut || Wait::Continue,
                )
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(m.unlock(0));
            assert_eq!(t.join().unwrap(), Acquire::Acquired);
            assert!(m.unlock(1));
            assert_eq!(m.held_total(), 0);
        }
    }

    #[test]
    fn lock_deadline_abandons_on_probe_request() {
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            m.lock(0, ConflictSet::new(&[0]));
            let out = m.lock_deadline(
                0,
                ConflictSet::new(&[0]),
                std::time::Instant::now() + Duration::from_secs(5),
                &mut || Wait::Abandon,
            );
            assert_eq!(out, Acquire::Abandoned);
            assert!(m.unlock(0));
            assert_eq!(m.held_total(), 0);
        }
    }

    #[test]
    fn expired_deadline_fails_fast_without_parking_or_probing() {
        // Regression for retry storms: a caller whose deadline has already
        // passed must degrade to one failed admission attempt — no waiter
        // registration, no park slice, no watchdog probe.
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            m.lock(0, ConflictSet::new(&[0]));
            let mut probes = 0u32;
            let start = std::time::Instant::now();
            let out = m.lock_deadline(
                0,
                ConflictSet::new(&[0]),
                start - Duration::from_millis(1),
                &mut || {
                    probes += 1;
                    Wait::Continue
                },
            );
            assert_eq!(out, Acquire::TimedOut, "{layout:?}");
            assert_eq!(probes, 0, "{layout:?}: expired caller must not probe");
            assert!(
                start.elapsed() < PROBE_INTERVAL,
                "{layout:?}: expired caller slept a park slice ({:?})",
                start.elapsed()
            );
            assert_eq!(m.count(0), 1, "failed acquisition must not leak holds");
            assert_eq!(m.stats().timeouts.load(Ordering::Relaxed), 1, "{layout:?}");
            assert_eq!(m.stats().contended.load(Ordering::Relaxed), 0, "{layout:?}");
            assert!(!m.waiter_summary(), "{layout:?}: expired caller published");
            assert_eq!(
                m.live_waiter_nodes(),
                0,
                "{layout:?}: expired caller pushed"
            );
            assert!(m.unlock(0));
            assert_eq!(m.held_total(), 0);
        }
    }

    #[test]
    fn expired_deadline_still_admits_when_uncontended() {
        // Admission beats an expired deadline: the fast-fail check sits
        // behind the initial admit attempt, so an uncontended caller whose
        // deadline lapsed still gets the mode.
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            let out = m.lock_deadline(
                0,
                ConflictSet::new(&[0]),
                std::time::Instant::now() - Duration::from_millis(1),
                &mut || Wait::Continue,
            );
            assert_eq!(out, Acquire::Acquired, "{layout:?}");
            assert!(m.unlock(0));
            assert_eq!(m.held_total(), 0);
        }
    }

    #[test]
    fn sub_slice_deadline_times_out_before_the_probe_fires() {
        // A deadline shorter than PROBE_INTERVAL must wake on the deadline,
        // re-check it, and report TimedOut *without* first paying for a
        // watchdog probe (a global graph scan) past the deadline.
        for layout in layouts() {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            m.lock(0, ConflictSet::new(&[0]));
            let mut probes = 0u32;
            let start = std::time::Instant::now();
            let out = m.lock_deadline(
                0,
                ConflictSet::new(&[0]),
                start + Duration::from_micros(300),
                &mut || {
                    probes += 1;
                    Wait::Continue
                },
            );
            assert_eq!(out, Acquire::TimedOut, "{layout:?}");
            assert_eq!(
                probes, 0,
                "{layout:?}: post-wake deadline check must run before the probe"
            );
            assert!(
                start.elapsed() < PROBE_INTERVAL + Duration::from_millis(20),
                "{layout:?}: sub-slice deadline overslept ({:?})",
                start.elapsed()
            );
            assert!(m.unlock(0));
            assert_eq!(m.held_total(), 0);
        }
    }

    #[test]
    fn double_unlock_refused_in_every_build() {
        // Regression: the underflow guard used to be debug-only (panic
        // under `cfg!(debug_assertions)`, silent restore in release). It
        // is now a checked decrement in all builds: refused, counted, and
        // reported to the caller via the `false` return. The packed
        // representation additionally must not borrow into a neighbouring
        // count field.
        for layout in layouts() {
            let m = Mech::with_backend(2, WaitStrategy::Block, layout);
            m.lock(0, ConflictSet::new(&[]));
            m.lock(1, ConflictSet::new(&[]));
            assert!(m.unlock(0));
            assert!(!m.unlock(0), "double unlock must be refused");
            assert_eq!(m.count(0), 0, "counter must not underflow");
            assert_eq!(m.count(1), 1, "neighbouring field must be untouched");
            assert_eq!(m.stats().underflows.load(Ordering::Relaxed), 1);
            // The mechanism stays usable after a refused release.
            m.lock(0, ConflictSet::new(&[0]));
            assert_eq!(m.count(0), 1);
            assert!(m.unlock(0));
            assert!(m.unlock(1));
        }
    }

    #[test]
    fn packed_field_saturation_blocks_instead_of_corrupting() {
        // 127 holders saturate a 7-bit field; the 128th try_lock must be
        // refused (it would otherwise carry into the next field), and one
        // release must re-admit.
        let m = Mech::with_backend(2, WaitStrategy::Block, AdmissionBackend::Packed);
        for _ in 0..FIELD_MAX {
            assert!(m.try_lock(0, ConflictSet::new(&[])));
        }
        assert_eq!(m.count(0), FIELD_MAX as u32);
        assert!(
            !m.try_lock(0, ConflictSet::new(&[])),
            "saturated field must refuse admission"
        );
        assert_eq!(m.count(1), 0, "neighbour field untouched by saturation");
        assert!(m.unlock(0));
        assert!(m.try_lock(0, ConflictSet::new(&[])));
        for _ in 0..FIELD_MAX {
            assert!(m.unlock(0));
        }
        assert_eq!(m.held_total(), 0);
    }

    #[test]
    fn held_conflicting_samples_positive_counters() {
        for layout in layouts() {
            let m = Mech::with_backend(3, WaitStrategy::Block, layout);
            m.lock(0, ConflictSet::new(&[]));
            m.lock(2, ConflictSet::new(&[]));
            assert_eq!(m.held_conflicting(&[0, 1, 2]), vec![0, 2]);
            assert!(m.held_conflicting(&[1]).is_empty());
            assert!(m.unlock(0));
            assert!(m.unlock(2));
        }
    }

    #[test]
    fn many_threads_same_compatible_mode() {
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(1, WaitStrategy::Block, layout));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let m = m.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        m.lock(0, ConflictSet::new(&[]));
                        assert!(m.unlock(0));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(m.count(0), 0);
        }
    }

    #[test]
    fn contended_counts_once_per_acquisition() {
        // Regression for the MechStats::contended semantics: a waiter that
        // parks several times during one acquisition (woken by releases
        // that do not yet clear its conflicts) must count once. Two holds
        // of mode 0 force the mode-1 waiter through two wakeups.
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
            m.lock(0, ConflictSet::new(&[]));
            m.lock(0, ConflictSet::new(&[]));
            let m2 = m.clone();
            let t = std::thread::spawn(move || {
                assert!(m2.lock(1, ConflictSet::new(&[0])), "waiter must park");
                assert!(m2.unlock(1));
            });
            std::thread::sleep(Duration::from_millis(30));
            assert!(m.unlock(0)); // wakes the waiter into a still-conflicted check
            std::thread::sleep(Duration::from_millis(30));
            assert!(m.unlock(0)); // now admissible
            t.join().unwrap();
            assert_eq!(
                m.stats().contended.load(Ordering::Relaxed),
                1,
                "{layout:?}: one parked acquisition counts exactly once"
            );
            assert_eq!(m.held_total(), 0);
        }
    }

    /// Strict weakness order for `Ordering` in the C++11 lattice (for the
    /// orderings an RMW/load can carry): Relaxed < Acquire/Release <
    /// AcqRel < SeqCst.
    fn strength(o: Ordering) -> u32 {
        match o {
            Ordering::Relaxed => 0,
            Ordering::Acquire | Ordering::Release => 1,
            Ordering::AcqRel => 2,
            Ordering::SeqCst => 3,
            _ => u32::MAX,
        }
    }

    #[test]
    fn ordering_audit_table_is_consistent() {
        // Sites are unique.
        let mut sites: Vec<&str> = ORDERING_AUDIT.iter().map(|e| e.site).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), ORDERING_AUDIT.len(), "duplicate audit site");
        // Every seeded mutant is strictly weaker than the shipped ordering,
        // and only non-Relaxed sites carry one.
        let mut mutants = 0;
        for e in ORDERING_AUDIT {
            assert!(!e.claim.is_empty(), "{}: empty claim", e.site);
            match e.mutant {
                Some(m) => {
                    mutants += 1;
                    assert!(
                        strength(m) < strength(e.ordering),
                        "{}: mutant {:?} is not strictly weaker than {:?}",
                        e.site,
                        m,
                        e.ordering
                    );
                }
                None => {
                    // `stack.summary.clear` is the one non-Relaxed site
                    // whose weakening only shows up as a po∪mo
                    // cross-location cycle — below the interleaving
                    // model's resolution, so seeding it would make the
                    // mutant suite fail for the wrong reason. The audit
                    // entry documents the hardware-only argument.
                    assert!(
                        e.ordering == Ordering::Relaxed || e.site == "stack.summary.clear",
                        "{}: non-Relaxed site must carry a seeded mutant",
                        e.site
                    );
                }
            }
        }
        assert!(mutants >= 9, "mutant catalog shrank to {mutants} entries");
    }

    #[test]
    fn audited_constants_are_what_the_protocol_ships() {
        // The audit table must report exactly the constants the code
        // compiles against — a drive-by edit of `mech::ordering` without a
        // matching table update fails here.
        let by_site = |s: &str| {
            ORDERING_AUDIT
                .iter()
                .find(|e| e.site == s)
                .unwrap_or_else(|| panic!("no audit entry for {s}"))
                .ordering
        };
        assert_eq!(by_site("word.admit.cas_ok"), ord::WORD_ADMIT_CAS_OK);
        assert_eq!(by_site("word.release.cas_ok"), ord::WORD_RELEASE_CAS_OK);
        assert_eq!(by_site("stack.push.cas_ok"), ord::STACK_PUSH_CAS_OK);
        assert_eq!(by_site("stack.claim.cas_ok"), ord::STACK_CLAIM_CAS_OK);
        assert_eq!(
            by_site("stack.summary.fetch_or"),
            ord::STACK_SUMMARY_FETCH_OR
        );
        assert_eq!(by_site("stack.summary.clear"), ord::STACK_SUMMARY_CLEAR);
        assert_eq!(by_site("stack.peek.head_load"), ord::STACK_PEEK_HEAD_LOAD);
        assert_eq!(by_site("wide.waiter.rmw"), ord::WIDE_WAITER_RMW);
        assert_eq!(by_site("wide.conflict.load"), ord::WIDE_CONFLICT_LOAD);
        assert_eq!(by_site("wide.release.rmw"), ord::WIDE_RELEASE_RMW);
        assert_eq!(by_site("wide.waiters.load"), ord::WIDE_WAITERS_LOAD);
    }

    #[test]
    fn wide_double_unlock_never_publishes_a_wrapped_count() {
        // Regression for the CAS-loop release: hammer double unlocks on
        // mode 0 while a reader polls the counter; the old
        // fetch_sub-then-restore scheme let u32::MAX leak out transiently.
        let m = Arc::new(Mech::with_backend(
            2,
            WaitStrategy::Block,
            AdmissionBackend::Wide,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (m, stop) = (m.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    assert!(m.count(0) <= 1, "transient underflow wrap observed");
                }
            })
        };
        for _ in 0..20_000 {
            m.lock(0, ConflictSet::new(&[]));
            assert!(m.unlock(0));
            assert!(!m.unlock(0), "double unlock must be refused");
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(m.held_total(), 0);
    }

    /// Field math at one width: shifts, saturation value, the summary bit
    /// on top, and a mask that covers every field and nothing else.
    fn field_math_holds_at<I: WordInt>() {
        let top = I::FIELDS as u32 - 1;
        assert_eq!(
            waiters_bit::<I>().low64(),
            if I::BITS == 64 { 1 << 63 } else { 0 }
        );
        assert_eq!(waiters_bit::<I>() >> (I::BITS - 1), I::ONE);
        assert_eq!(conflict_mask(&[]), 0);
        assert_eq!(conflict_mask(&[0]), FIELD_MAX as u128);
        assert_eq!(conflict_mask(&[1]), (FIELD_MAX as u128) << FIELD_BITS);
        assert_eq!(
            I::truncate(conflict_mask(&[0, top])),
            I::truncate(FIELD_MAX as u128) | (I::truncate(FIELD_MAX as u128) << field_shift(top))
        );
        let all = I::truncate(conflict_mask(&(0..I::FIELDS as u32).collect::<Vec<_>>()));
        assert_eq!(
            all & waiters_bit(),
            I::ZERO,
            "mask must never cover the waiter bit"
        );
        for l in 0..=top {
            assert_eq!(field_of(all, l), FIELD_MAX, "field {l}");
            // A saturated field is exactly FIELD_MAX ones at its shift.
            let one = I::ONE << field_shift(l);
            let mut w = I::ZERO;
            for _ in 0..FIELD_MAX {
                w = w + one;
            }
            assert_eq!(field_of(w, l), FIELD_MAX);
            assert_eq!(
                w & !(I::truncate(FIELD_MAX as u128) << field_shift(l)),
                I::ZERO
            );
        }
        // The fields end below the reserved region under the summary bit.
        assert!(field_shift(top) + FIELD_BITS < I::BITS);
    }

    #[test]
    fn field_math_holds_at_both_widths() {
        field_math_holds_at::<u64>();
        field_math_holds_at::<u128>();
        assert_eq!(u64::FIELDS, 8);
        assert_eq!(u128::FIELDS, 16);
        // For locals a packed partition can have, the 64-bit mask is the
        // low half of the 128-bit one.
        let m = conflict_mask(&[0, 3, 7]);
        assert_eq!(m >> 64, 0);
        assert_eq!(u64::truncate(m) as u128, m);
    }

    #[test]
    fn dwcas_field_saturation_blocks_instead_of_corrupting() {
        // The Dwcas twin of the packed saturation test, on the topmost
        // field (15) so a carry would have to escape into the reserved
        // region next to the waiter bit.
        let m = Mech::with_backend(16, WaitStrategy::Block, AdmissionBackend::Dwcas);
        for _ in 0..FIELD_MAX {
            assert!(m.try_lock(15, ConflictSet::new(&[])));
        }
        assert_eq!(m.count(15), FIELD_MAX as u32);
        assert!(
            !m.try_lock(15, ConflictSet::new(&[])),
            "saturated field must refuse admission"
        );
        assert_eq!(m.count(14), 0, "neighbour field untouched by saturation");
        assert!(!m.waiter_summary(), "saturation must not publish waiters");
        assert!(m.unlock(15));
        assert!(m.try_lock(15, ConflictSet::new(&[])));
        for _ in 0..FIELD_MAX {
            assert!(m.unlock(15));
        }
        assert_eq!(m.held_total(), 0);
    }

    #[test]
    fn dwcas_high_and_low_modes_exclude_each_other() {
        // Cross-word-half conflict: mode 15 (high u64 half of the 128-bit
        // word) vs mode 0 (low half) — the shape a torn non-atomic
        // 2×64-bit update would get wrong.
        let m = Arc::new(Mech::with_backend(
            16,
            WaitStrategy::Block,
            AdmissionBackend::Dwcas,
        ));
        let iters = 2_000;
        let mut handles = Vec::new();
        for (mode, other) in [(0u32, 15u32), (15, 0)] {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let conflicts = [other];
                for _ in 0..iters {
                    m.lock(mode, ConflictSet::new(&conflicts));
                    assert_eq!(m.count(other), 0, "both modes held at once");
                    assert!(m.unlock(mode));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.held_total(), 0);
        assert_eq!(m.live_waiter_nodes(), 0, "waiter nodes leaked");
    }

    #[test]
    fn contended_stack_path_leaves_no_nodes_or_summary_behind() {
        // After any amount of contention, quiescence means: summary bit
        // clear, zero live waiter nodes (the claim sweeps stale ones).
        for layout in [AdmissionBackend::Packed, AdmissionBackend::Dwcas] {
            let m = Arc::new(Mech::with_backend(2, WaitStrategy::Block, layout));
            let mut handles = Vec::new();
            for mode in 0..2u32 {
                let m = m.clone();
                handles.push(std::thread::spawn(move || {
                    let conflicts = [1 - mode];
                    for _ in 0..2_000 {
                        m.lock(mode, ConflictSet::new(&conflicts));
                        assert!(m.unlock(mode));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(m.held_total(), 0, "{layout:?}");
            assert!(!m.waiter_summary(), "{layout:?}: summary bit left set");
            assert_eq!(m.live_waiter_nodes(), 0, "{layout:?}: waiter nodes leaked");
        }
    }

    #[test]
    fn group_admission_is_all_or_nothing() {
        for layout in layouts() {
            let m = Mech::with_backend(3, WaitStrategy::Block, layout);
            let (c0, c1) = cross_conflict();
            // Empty and singleton groups degenerate correctly.
            assert!(m.try_lock_group(&[]), "{layout:?}");
            assert!(
                m.try_lock_group(&[GroupRequest {
                    local: 2,
                    cs: ConflictSet::new(&[2]),
                }]),
                "{layout:?}"
            );
            assert!(m.unlock(2));
            // Non-conflicting pair admits in one shot.
            assert!(
                m.try_lock_group(&[
                    GroupRequest {
                        local: 0,
                        cs: ConflictSet::new(&c0),
                    },
                    GroupRequest {
                        local: 2,
                        cs: ConflictSet::new(&[2]),
                    },
                ]),
                "{layout:?}"
            );
            assert_eq!(m.count(0), 1, "{layout:?}");
            assert_eq!(m.count(2), 1, "{layout:?}");
            // A group refused by a standing conflict admits nothing.
            assert!(
                !m.try_lock_group(&[
                    GroupRequest {
                        local: 2,
                        cs: ConflictSet::new(&[2]), // blocked: 2 is held
                    },
                    GroupRequest {
                        local: 1,
                        cs: ConflictSet::new(&c1),
                    },
                ]),
                "{layout:?}"
            );
            assert_eq!(m.count(1), 0, "{layout:?}: leaked partial admission");
            assert_eq!(m.count(2), 1, "{layout:?}");
            assert!(m.unlock(0));
            assert!(m.unlock(2));
            assert_eq!(m.held_total(), 0, "{layout:?}");
        }
    }

    #[test]
    fn group_with_mutual_conflict_refuses_cleanly() {
        // Modes 0 and 1 exclude each other: a group containing both can
        // never be admitted together, on any layout (the combined-CAS
        // path must not union-mask its way past the mutual exclusion).
        for layout in layouts() {
            let m = Mech::with_backend(2, WaitStrategy::Block, layout);
            let (c0, c1) = cross_conflict();
            assert!(
                !m.try_lock_group(&[
                    GroupRequest {
                        local: 0,
                        cs: ConflictSet::new(&c0),
                    },
                    GroupRequest {
                        local: 1,
                        cs: ConflictSet::new(&c1),
                    },
                ]),
                "{layout:?}: mutually conflicting group admitted"
            );
            assert_eq!(m.held_total(), 0, "{layout:?}");
        }
    }

    #[test]
    fn group_respects_saturation() {
        for layout in [AdmissionBackend::Packed, AdmissionBackend::Dwcas] {
            let m = Mech::with_backend(1, WaitStrategy::Block, layout);
            for _ in 0..FIELD_MAX - 1 {
                m.lock(0, ConflictSet::new(&[]));
            }
            // One slot of headroom left: a two-member group on the same
            // mode would overflow the 7-bit field and must be refused.
            let req = || GroupRequest {
                local: 0,
                cs: ConflictSet::new(&[]),
            };
            assert!(!m.try_lock_group(&[req(), req()]), "{layout:?}");
            assert!(m.try_lock_group(&[req()]), "{layout:?}");
            assert_eq!(u64::from(m.count(0)), FIELD_MAX, "{layout:?}");
            for _ in 0..FIELD_MAX {
                assert!(m.unlock(0));
            }
        }
    }

    #[test]
    fn concurrent_groups_never_interleave_partially() {
        // Two threads race disjoint-but-conflicting groups: T0 wants
        // {0, 1}, T1 wants {2, 3}, where 1 and 2 exclude each other. Any
        // moment must show either a whole group admitted or none of it.
        for layout in layouts() {
            let m = Arc::new(Mech::with_backend(4, WaitStrategy::Block, layout));
            let stop = Arc::new(AtomicBool::new(false));
            let active = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for (a, b, other) in [(0u32, 1u32, 2u32), (2, 3, 1)] {
                let m = m.clone();
                let stop = stop.clone();
                let active = active.clone();
                handles.push(std::thread::spawn(move || {
                    let ca = [a]; // self-conflicting anchor mode
                    let cb = [other];
                    let mut admitted = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let ok = m.try_lock_group(&[
                            GroupRequest {
                                local: a,
                                cs: ConflictSet::new(&ca),
                            },
                            GroupRequest {
                                local: b,
                                cs: ConflictSet::new(&cb),
                            },
                        ]);
                        if ok {
                            admitted += 1;
                            // Full admissions of the two groups exclude
                            // each other (b vs the peer's b): at most one
                            // whole group may be in its section at once.
                            let prev = active.fetch_add(1, Ordering::SeqCst);
                            assert_eq!(prev, 0, "{layout:?}: both groups admitted");
                            assert_eq!(m.count(a), 1, "{layout:?}");
                            active.fetch_sub(1, Ordering::SeqCst);
                            assert!(m.unlock(b));
                            assert!(m.unlock(a));
                        }
                    }
                    admitted
                }));
            }
            std::thread::sleep(Duration::from_millis(50));
            stop.store(true, Ordering::Relaxed);
            let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(total > 0, "{layout:?}: no group ever admitted");
            assert_eq!(m.held_total(), 0, "{layout:?}");
        }
    }
}
