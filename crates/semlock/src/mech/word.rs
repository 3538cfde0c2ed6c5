use super::ordering as ord;
use crate::sync::{AtomicU128, AtomicU64, Ordering};

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

/// A lock-free admission word: four atomic primitives over a
/// [`WordInt`], and — as provided methods — the admission protocol
/// written once on top of them. Private: `AtomicU64` (packed) and
/// [`AtomicU128`] (Dwcas) are the only implementors, they differ only in
/// width, and every memory-ordering claim is made (and model-checked)
/// once per site rather than once per width.
pub(super) trait AdmitWord {
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

    /// Visit the locals among `conflicts` whose count is positive — a
    /// racy telemetry sample.
    fn held_among(&self, conflicts: &[u32], visit: impl FnMut(u32)) {
        let cur = self.load(Ordering::Relaxed);
        conflicts
            .iter()
            .copied()
            .filter(|&c| field_of(cur, c) > 0)
            .for_each(visit);
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
