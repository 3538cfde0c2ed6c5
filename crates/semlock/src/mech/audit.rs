use super::ordering::{self as ord, Ordering};

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
    /// [`super::ordering`]).
    pub ordering: Ordering,
    /// The seeded mutant: this site weakened one notch. `None` for sites
    /// that are already Relaxed.
    pub mutant: Option<Ordering>,
    /// What goes wrong without the ordering — the claim the model
    /// checker's property suite verifies (and whose mutant it must catch).
    pub claim: &'static str,
}

/// The audited ordering table for the admission protocol, one entry per
/// atomic-access site in [`super::Mech`]: the admission word (written once,
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
