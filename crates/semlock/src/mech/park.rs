use super::word::{AdmitWord, ConflictSet};
use super::{Acquire, Counts, Mech, Wait, WaitStrategy, PROBE_INTERVAL};
use std::time::Instant;

/// How many further admission tries a refused blocking acquisition makes
/// before it parks. Chosen on `server_hot` (two workers, two shards,
/// Zipf 0.99, one 592-mode wide partition per shard): conflicts there
/// last about as long as the critical section, so re-trying for a few
/// microseconds beats a futex sleep and wake — 1.01 M → 1.65 M ops/s and
/// p99 19.6 → 2.7 µs against parking at once, p50 +11 %, with
/// `one_worker_ops_s` and `cia_1t` unchanged (EXPERIMENTS.md "Admission
/// cull", ten alternating 20 s pairs).
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

impl Mech {
    /// Everything [`Mech::lock`] does after a refused first attempt.
    /// Outlined so the uncontended body stays small enough to inline.
    #[cold]
    pub(super) fn lock_slow(&self, local: u32, cs: ConflictSet<'_>) {
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

    /// Everything [`Mech::lock_deadline`] does after a refused first
    /// attempt.
    #[cold]
    pub(super) fn lock_deadline_slow(
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
    pub(super) fn release_stack<W: AdmitWord>(&self, word: &W, local: u32) -> bool {
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
