//! The `Mech` admission protocol instantiated over the model shims.
//!
//! [`WordMech`] and [`WideMech`] are line-for-line transcriptions of the
//! blocking-strategy paths of `semlock::mech::Mech` (admit try → bounded
//! probes → park: one-word admission with the claim-based waiter-stack
//! handoff, written once over the word's width exactly as the runtime
//! writes it — [`PackedMech`] is the 64-bit instance, `WordMech<AtomicU128>`
//! the Dwcas one; wide per-mode counters with the registered-waiter
//! store-buffering protocol), written against [`crate::sync`] instead of
//! `semlock::sync`. The field math (`WordInt`, `field_shift`, `field_of`,
//! `waiters_bit`, `FIELD_MAX`) is imported from `semlock` itself, and
//! every memory ordering comes from an [`OrderingProfile`] whose default
//! is built from the named constants in `semlock::mech::ordering` — so
//! the protocol being checked is the protocol that ships, not a copy that
//! can drift.
//!
//! The probe budget is a constructor parameter: the runtime makes
//! `semlock::mech::OPTIMISTIC_PROBES` = 32 further tries before parking,
//! but a probe is one more `try_admit` from the same state, so a longer
//! loop only multiplies identical states; the scenarios run with 1 (and
//! with 0 where the probe phase is not what they examine).
//!
//! [`ModelStack`] transcribes `semlock::stack::WaiterStack` over a
//! fixed node pool: the head word packs `tag << 16 | (idx + 1)` (0 =
//! empty) instead of tagged 48-bit pointers, which keeps the protocol
//! shape — tagged-head Treiber push, whole-stack claim, next-read
//! **before** notify, per-node park flags — while staying inside the
//! model's integer store histories. The node *reference counts* of the
//! real stack are deliberately not transcribed: they manage reclamation
//! only, carry no protocol state, and no path reads data ordered by
//! them (the pool nodes here live for the whole execution).
//!
//! Orderings are *parameters* so the mutant tests can weaken exactly one
//! audited site at a time: [`OrderingProfile::mutants`] derives the
//! catalog from `semlock::mech::ORDERING_AUDIT`, and the checker must
//! find a counterexample for every entry.

use crate::sync::{AtomicU128, AtomicU32, AtomicU64, Condvar, Mutex, Ordering};
use semlock::mech::{field_of, field_shift, ordering as ord, waiters_bit, WordInt, FIELD_MAX};
use std::sync::Arc;

/// Declare [`OrderingProfile`] from one list of `field = CONSTANT @
/// "audit.site"` rows: the struct (one field per `ORDERING_AUDIT` site),
/// its default (every field the shipped `semlock::mech::ordering`
/// constant) and the by-name override the mutant catalog uses.
macro_rules! ordering_profile {
    ($($field:ident = $konst:ident @ $site:literal),* $(,)?) => {
        /// Every audited memory ordering of the admission protocol, one
        /// field per `ORDERING_AUDIT` site.
        #[derive(Clone, Copy, Debug)]
        pub struct OrderingProfile {
            $(#[doc = $site] pub $field: Ordering,)*
        }

        impl Default for OrderingProfile {
            /// The shipped protocol: every field is the corresponding
            /// `semlock::mech::ordering` constant.
            fn default() -> OrderingProfile {
                OrderingProfile { $($field: ord::$konst,)* }
            }
        }

        impl OrderingProfile {
            /// Override one audited site by its `ORDERING_AUDIT` name.
            ///
            /// Panics on an unknown site so a renamed audit entry cannot
            /// silently turn a mutant test into a no-op.
            pub fn with_site(mut self, site: &str, o: Ordering) -> OrderingProfile {
                match site {
                    $($site => self.$field = o,)*
                    other => panic!("unknown ORDERING_AUDIT site {other:?}"),
                }
                self
            }
        }
    };
}

ordering_profile! {
    word_admit_load = WORD_ADMIT_LOAD @ "word.admit.load",
    word_admit_cas_ok = WORD_ADMIT_CAS_OK @ "word.admit.cas_ok",
    word_admit_cas_fail = WORD_ADMIT_CAS_FAIL @ "word.admit.cas_fail",
    word_release_load = WORD_RELEASE_LOAD @ "word.release.load",
    word_release_cas_ok = WORD_RELEASE_CAS_OK @ "word.release.cas_ok",
    word_release_cas_fail = WORD_RELEASE_CAS_FAIL @ "word.release.cas_fail",
    stack_push_head_load = STACK_PUSH_HEAD_LOAD @ "stack.push.head_load",
    stack_next_store = STACK_NEXT_STORE @ "stack.push.next_store",
    stack_push_cas_ok = STACK_PUSH_CAS_OK @ "stack.push.cas_ok",
    stack_push_cas_fail = STACK_PUSH_CAS_FAIL @ "stack.push.cas_fail",
    stack_summary_fetch_or = STACK_SUMMARY_FETCH_OR @ "stack.summary.fetch_or",
    stack_summary_clear = STACK_SUMMARY_CLEAR @ "stack.summary.clear",
    stack_peek_head_load = STACK_PEEK_HEAD_LOAD @ "stack.peek.head_load",
    stack_claim_head_load = STACK_CLAIM_HEAD_LOAD @ "stack.claim.head_load",
    stack_claim_cas_ok = STACK_CLAIM_CAS_OK @ "stack.claim.cas_ok",
    stack_claim_cas_fail = STACK_CLAIM_CAS_FAIL @ "stack.claim.cas_fail",
    stack_next_load = STACK_NEXT_LOAD @ "stack.claim.next_load",
    wide_waiter_rmw = WIDE_WAITER_RMW @ "wide.waiter.rmw",
    wide_conflict_load = WIDE_CONFLICT_LOAD @ "wide.conflict.load",
    wide_release_rmw = WIDE_RELEASE_RMW @ "wide.release.rmw",
    wide_waiters_load = WIDE_WAITERS_LOAD @ "wide.waiters.load",
}

impl OrderingProfile {
    /// The seeded mutant catalog: one profile per `ORDERING_AUDIT` entry
    /// that declares a `mutant` ordering (the audited ordering weakened
    /// one notch). The checker must refute every one of these.
    pub fn mutants() -> Vec<(&'static str, OrderingProfile)> {
        semlock::mech::ORDERING_AUDIT
            .iter()
            .filter_map(|e| {
                e.mutant
                    .map(|m| (e.site, OrderingProfile::default().with_site(e.site, m)))
            })
            .collect()
    }
}

const WAITING: u32 = 0;
const NOTIFIED: u32 = 1;

/// One pool node of the model waiter stack.
struct ModelNode {
    /// Encoded index (`idx + 1`) of the next node down; 0 = bottom.
    next: AtomicU64,
    state: Mutex<u32>,
    cond: Condvar,
}

/// `semlock::stack::WaiterStack` over the model shims: a tagged-head
/// Treiber stack whose "pointers" are pool indices (see module docs).
pub struct ModelStack {
    /// `tag << 16 | (idx + 1)`; low bits 0 = empty.
    head: AtomicU64,
    nodes: Vec<ModelNode>,
    /// Bump allocator over the pool (reclamation is not transcribed).
    next_free: AtomicU32,
    profile: OrderingProfile,
}

const MODEL_TAG_SHIFT: u32 = 16;
const MODEL_PTR_MASK: u64 = (1 << MODEL_TAG_SHIFT) - 1;

fn model_pack(tag: u64, enc: u64) -> u64 {
    (tag << MODEL_TAG_SHIFT) | enc
}

fn model_tag(head: u64) -> u64 {
    head >> MODEL_TAG_SHIFT
}

fn model_ptr(head: u64) -> u64 {
    head & MODEL_PTR_MASK
}

impl ModelStack {
    /// A fresh stack with a pool of `capacity` nodes. Must be called on
    /// a model thread (inside `Checker::check`).
    pub fn new(capacity: usize, profile: OrderingProfile) -> ModelStack {
        ModelStack {
            head: AtomicU64::new(0),
            nodes: (0..capacity)
                .map(|_| ModelNode {
                    next: AtomicU64::new(0),
                    state: Mutex::new(WAITING),
                    cond: Condvar::new(),
                })
                .collect(),
            next_free: AtomicU32::new(0),
            profile,
        }
    }

    /// Allocate a pool node (the model's `WaiterStack::alloc`).
    pub fn alloc(&self) -> usize {
        let idx = self.next_free.fetch_add(1, Ordering::Relaxed) as usize;
        assert!(idx < self.nodes.len(), "model stack pool exhausted");
        idx
    }

    /// Pool nodes handed out so far (post-join asserts: zero means no
    /// acquisition ever reached the park path).
    pub fn allocated(&self) -> u32 {
        self.next_free.load(Ordering::Relaxed)
    }

    /// `OwnedNode::prepare`: reset to waiting before a (re-)push.
    pub fn prepare(&self, idx: usize) {
        *self.nodes[idx].state.lock() = WAITING;
    }

    /// `WaiterStack::push`: Treiber CAS prepend, bumping the tag.
    pub fn push(&self, idx: usize) {
        let enc = idx as u64 + 1;
        let mut cur = self.head.load(self.profile.stack_push_head_load);
        loop {
            self.nodes[idx]
                .next
                .store(model_ptr(cur), self.profile.stack_next_store);
            let new = model_pack(model_tag(cur).wrapping_add(1) & MODEL_PTR_MASK, enc);
            match self.head.compare_exchange_weak(
                cur,
                new,
                self.profile.stack_push_cas_ok,
                self.profile.stack_push_cas_fail,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// `WaiterStack::claim`: one CAS swaps the head to empty (tag
    /// bumped); returns the encoded chain start (0 = nothing claimed).
    pub fn claim(&self) -> u64 {
        let mut cur = self.head.load(self.profile.stack_claim_head_load);
        loop {
            if model_ptr(cur) == 0 {
                return 0;
            }
            let new = model_pack(model_tag(cur).wrapping_add(1) & MODEL_PTR_MASK, 0);
            match self.head.compare_exchange_weak(
                cur,
                new,
                self.profile.stack_claim_cas_ok,
                self.profile.stack_claim_cas_fail,
            ) {
                Ok(_) => return model_ptr(cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// `WaiterStack::is_empty` (diagnostics only — the handoff never
    /// branches on it).
    pub fn is_empty(&self) -> bool {
        model_ptr(self.head.load(self.profile.stack_peek_head_load)) == 0
    }

    /// `ClaimedBatch::wake_all`: walk the claimed chain, reading each
    /// `next` **before** the notify (a notified waiter may re-push and
    /// overwrite it).
    pub fn wake_chain(&self, mut enc: u64) {
        while enc != 0 {
            let node = &self.nodes[enc as usize - 1];
            let next = node.next.load(self.profile.stack_next_load);
            {
                let mut st = node.state.lock();
                *st = NOTIFIED;
                node.cond.notify_all();
            }
            enc = next;
        }
    }

    /// `OwnedNode::park`: sleep until notified (immediately returns on a
    /// pre-notified node).
    pub fn park(&self, idx: usize) {
        let node = &self.nodes[idx];
        let mut st = node.state.lock();
        while *st != NOTIFIED {
            node.cond.wait(&mut st);
        }
    }
}

/// A model admission word: the four primitives of the runtime's private
/// `AdmitWord` trait, over a shim atomic.
pub trait ModelWord: Send + Sync + 'static {
    /// The integer the word holds (`u64` packed, `u128` Dwcas).
    type Int: WordInt;
    /// A fresh word holding zero.
    fn zeroed() -> Self;
    /// Model load.
    fn load(&self, order: Ordering) -> Self::Int;
    /// Model weak compare-exchange.
    fn compare_exchange_weak(
        &self,
        current: Self::Int,
        new: Self::Int,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Self::Int, Self::Int>;
    /// Model `fetch_or`.
    fn fetch_or(&self, bits: Self::Int, order: Ordering) -> Self::Int;
    /// Model `fetch_and`.
    fn fetch_and(&self, bits: Self::Int, order: Ordering) -> Self::Int;
}

macro_rules! model_word {
    ($atomic:ty, $int:ty) => {
        impl ModelWord for $atomic {
            type Int = $int;
            fn zeroed() -> $atomic {
                <$atomic>::new(0)
            }
            fn load(&self, order: Ordering) -> $int {
                <$atomic>::load(self, order)
            }
            fn compare_exchange_weak(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                <$atomic>::compare_exchange_weak(self, current, new, success, failure)
            }
            fn fetch_or(&self, bits: $int, order: Ordering) -> $int {
                <$atomic>::fetch_or(self, bits, order)
            }
            fn fetch_and(&self, bits: $int, order: Ordering) -> $int {
                <$atomic>::fetch_and(self, bits, order)
            }
        }
    };
}

model_word!(AtomicU64, u64);
model_word!(AtomicU128, u128);

/// How a blocking acquisition was admitted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Admitted {
    /// By the first attempt.
    AtOnce,
    /// By a re-try of the probe phase: nothing was published.
    Probing,
    /// Through the park path (a waiter was published; it may have
    /// self-admitted before actually sleeping).
    Parked,
}

/// The one-word blocking mechanism over the model shims, generic over
/// the word's width like the runtime's.
pub struct WordMech<W: ModelWord> {
    word: W,
    stack: ModelStack,
    probes: u32,
    profile: OrderingProfile,
}

/// The packed (64-bit word) instance.
pub type PackedMech = WordMech<AtomicU64>;

impl<W: ModelWord> WordMech<W> {
    /// A fresh mechanism (all counts zero) whose refused acquisitions
    /// re-try `probes` times before parking. Must be called on a model
    /// thread (inside `Checker::check`).
    pub fn new(profile: OrderingProfile, probes: u32) -> Arc<WordMech<W>> {
        Arc::new(WordMech {
            word: W::zeroed(),
            stack: ModelStack::new(16, profile),
            probes,
            profile,
        })
    }

    /// `AdmitWord::refuses`.
    fn refuses(cur: W::Int, local: u32, mask: u128) -> bool {
        cur & W::Int::truncate(mask) != W::Int::ZERO || field_of(cur, local) == FIELD_MAX
    }

    /// `AdmitWord::try_admit`, orderings from the profile. `mask` is
    /// `semlock::mech::conflict_mask` of the mode's conflicts, at the
    /// 128-bit width as `ConflictSet` carries it.
    fn try_admit(&self, local: u32, mask: u128) -> bool {
        let one = W::Int::ONE << field_shift(local);
        let mut cur = self.word.load(self.profile.word_admit_load);
        loop {
            if Self::refuses(cur, local, mask) {
                return false;
            }
            match self.word.compare_exchange_weak(
                cur,
                cur + one,
                self.profile.word_admit_cas_ok,
                self.profile.word_admit_cas_fail,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    /// `Mech::lock`, word blocking arm: first attempt, the probe phase of
    /// `Mech::lock_slow`, then the claim-stack episode loop of
    /// `Mech::park_stack`.
    pub fn lock(&self, local: u32, mask: u128) -> Admitted {
        if self.try_admit(local, mask) {
            return Admitted::AtOnce;
        }
        for _ in 0..self.probes {
            if self.try_admit(local, mask) {
                return Admitted::Probing;
            }
        }
        let node = self.stack.alloc();
        loop {
            self.stack.prepare(node);
            self.stack.push(node);
            // `AdmitWord::summary_set_and_check`: re-check admission
            // from the word the fetch_or returned.
            let ret = self
                .word
                .fetch_or(waiters_bit(), self.profile.stack_summary_fetch_or);
            if !Self::refuses(ret, local, mask) && self.try_admit(local, mask) {
                return Admitted::Parked;
            }
            self.stack.park(node);
            if self.try_admit(local, mask) {
                return Admitted::Parked;
            }
        }
    }

    /// `Mech::handoff`: clear → claim → wake. Clearing first makes the
    /// summary bit self-stabilizing: a pusher's `fetch_or` ordered after
    /// the clear re-sets it with nothing left to erase it.
    fn handoff(&self) {
        self.word
            .fetch_and(!waiters_bit::<W::Int>(), self.profile.stack_summary_clear);
        let chain = self.stack.claim();
        self.stack.wake_chain(chain);
    }

    /// `AdmitWord::release_decrement`: the checked CAS-decrement;
    /// `Some(had_waiters)` or `None` on a refused underflow.
    fn release_decrement(&self, local: u32) -> Option<bool> {
        let one = W::Int::ONE << field_shift(local);
        let mut cur = self.word.load(self.profile.word_release_load);
        loop {
            if field_of(cur, local) == 0 {
                return None;
            }
            match self.word.compare_exchange_weak(
                cur,
                cur - one,
                self.profile.word_release_cas_ok,
                self.profile.word_release_cas_fail,
            ) {
                Ok(prev) => return Some(prev & waiters_bit() != W::Int::ZERO),
                Err(actual) => cur = actual,
            }
        }
    }

    /// `Mech::release_stack`: CAS-decrement, refuse underflow, hand off
    /// when the pre-decrement word carried the summary bit.
    pub fn unlock(&self, local: u32) -> bool {
        match self.release_decrement(local) {
            Some(had_waiters) => {
                if had_waiters {
                    self.handoff();
                }
                true
            }
            None => false,
        }
    }

    /// Latest word (harness asserts after all threads joined, when the
    /// joiner's view pins the latest store).
    pub fn word(&self) -> W::Int {
        self.word.load(Ordering::Relaxed)
    }

    /// Waiter nodes ever allocated (post-join asserts).
    pub fn nodes_allocated(&self) -> u32 {
        self.stack.allocated()
    }
}

/// The wide (per-mode counters) blocking mechanism over the model shims.
pub struct WideMech {
    counts: Vec<AtomicU32>,
    internal: Mutex<()>,
    cond: Condvar,
    waiters: AtomicU32,
    probes: u32,
    profile: OrderingProfile,
}

impl WideMech {
    /// A fresh mechanism with `modes` counters whose refused acquisitions
    /// re-try `probes` times before parking. Must be called on a model
    /// thread.
    pub fn new(modes: usize, profile: OrderingProfile, probes: u32) -> Arc<WideMech> {
        Arc::new(WideMech {
            counts: (0..modes).map(|_| AtomicU32::new(0)).collect(),
            internal: Mutex::new(()),
            cond: Condvar::new(),
            waiters: AtomicU32::new(0),
            probes,
            profile,
        })
    }

    /// `Mech::conflicted_wide`, ordering from the profile.
    fn conflicted(&self, conflicts: &[u32]) -> bool {
        conflicts
            .iter()
            .any(|&c| self.counts[c as usize].load(self.profile.wide_conflict_load) > 0)
    }

    /// `Mech::try_admit_wide`: check-then-increment under the internal
    /// mutex, no waiter registration.
    pub fn try_admit(&self, local: u32, conflicts: &[u32]) -> bool {
        let _guard = self.internal.lock();
        if self.conflicted(conflicts) {
            return false;
        }
        self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
        true
    }

    /// `Mech::lock`, wide blocking arm: first attempt, the probe phase of
    /// `Mech::lock_slow`, then `Mech::park_wide` (register as waiter,
    /// check, park).
    pub fn lock(&self, local: u32, conflicts: &[u32]) -> Admitted {
        if self.try_admit(local, conflicts) {
            return Admitted::AtOnce;
        }
        for _ in 0..self.probes {
            if self.try_admit(local, conflicts) {
                return Admitted::Probing;
            }
        }
        let mut guard = self.internal.lock();
        loop {
            self.waiters.fetch_add(1, self.profile.wide_waiter_rmw);
            if !self.conflicted(conflicts) {
                self.waiters.fetch_sub(1, self.profile.wide_waiter_rmw);
                break;
            }
            self.cond.wait(&mut guard);
            self.waiters.fetch_sub(1, self.profile.wide_waiter_rmw);
        }
        self.counts[local as usize].fetch_add(1, Ordering::Relaxed);
        drop(guard);
        Admitted::Parked
    }

    /// Is a waiter registered right now? (`Mech::waiter_summary`, wide
    /// arm; post-join asserts.)
    pub fn waiters(&self) -> u32 {
        self.waiters.load(Ordering::Relaxed)
    }

    /// `Mech::release_wide`: checked CAS decrement, then the
    /// decrement-then-read-waiters half of the store-buffering pair.
    pub fn unlock(&self, local: u32) -> bool {
        let c = &self.counts[local as usize];
        let mut cur = c.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            match c.compare_exchange_weak(
                cur,
                cur - 1,
                self.profile.wide_release_rmw,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        if self.waiters.load(self.profile.wide_waiters_load) > 0 {
            let _g = self.internal.lock();
            self.cond.notify_all();
        }
        true
    }

    /// Latest count of one mode (post-join asserts).
    pub fn count(&self, local: u32) -> u32 {
        self.counts[local as usize].load(Ordering::Relaxed)
    }
}
