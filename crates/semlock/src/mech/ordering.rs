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
