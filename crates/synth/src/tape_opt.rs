//! Tape optimizer: post-lowering, pre-compilation transformations over
//! the flat op tape ([`crate::lower::Tape`]).
//!
//! The paper's Appendix-A optimizations (redundant-`LV` removal, early
//! release) run at the IR level in [`crate::opt`]; this pass extends the
//! same reasoning down to the execution level, where the lowered form
//! exposes opportunities the IR cannot see — adjacency after lowering,
//! loop structure as relative jumps, and the per-op dispatch cost itself.
//! Three transformations run in order, each proven behavior-preserving
//! against the tape's structural validator and the SL006–SL008 audits:
//!
//! 1. **Acquisition fusion** ([`TapeOptStats::fused`]): a `Lock` op whose
//!    receiver slot was already lock-targeted earlier in the same basic
//!    block — with the slot unwritten and no release in between — is a
//!    guaranteed `LOCAL_SET` skip at run time: the engine dedups held
//!    *instances* (not sites) before φ selection, checker registration,
//!    the fault boundary, or any telemetry, so the later op is
//!    unobservable whatever its site or keys. The op is deleted. This is
//!    the execution-level completion of the IR redundant-`LV` pass, and
//!    strictly stronger: the IR pass needs the same site, while every
//!    distinct per-call site on the same receiver fuses here.
//! 2. **Batched group admission** ([`TapeOptStats::batches`]): a maximal
//!    straight-line run of two or more `Lock` ops collapses into one
//!    [`LowOp::AcquireBatch`] over a [`Tape::group_pool`] range. The
//!    engine admits the members in canonical unique-id order (Fig. 12)
//!    through the transaction group fast path — one admission CAS per
//!    member word, all-or-nothing with reverse rollback, sequential
//!    escalation on refusal — instead of one full dispatch + admission
//!    round-trip per op.
//! 3. **Loop-invariant hoisting** ([`TapeOptStats::hoisted`]): an
//!    acquisition (a `Lock`, or a whole `AcquireBatch` from pass 2) that
//!    is the first op of a loop body and whose receiver and key slots are
//!    provably unwritten across the whole loop (register dataflow over
//!    the relative jumps) is hoisted by *guarded loop rotation*: the
//!    loop's exit test — required to be pure, repeatable register ops —
//!    is duplicated above the loop as a guard, the acquisition moves
//!    between the guard and the loop header, and the backedge targets the
//!    header below it. Iterations after the first skip the acquisition op
//!    entirely (it was a held-instance no-op there anyway); the zero-trip
//!    path fails the guard and acquires nothing, exactly as the original
//!    tape did. Because the duplicated test is pure and the acquisition
//!    stays at the same position in the executed op sequence, the
//!    optimized tape's run-time event sequence — admissions, releases,
//!    checker callbacks, fault-injection boundaries and their per-
//!    transaction step ordinals — is *identical* to the unoptimized
//!    tape's on every trip count. Hoisting fires only when the loop
//!    contains no release op, so the matching release — the section
//!    epilogue — is already below every loop exit (two-phase discipline
//!    keeps it there).
//!
//! Compaction removes the `Jump {off: 0}` placeholders fusion and
//! batching leave behind, remapping every jump offset across the deleted
//! ops; it runs after each of those passes so the next pass sees true
//! adjacency. Every transformation is validated with
//! [`crate::lower::validate`]; a candidate that fails validation is
//! discarded, never applied.

use crate::lower::{validate, LowOp, Tape, NO_SLOT};

/// Per-pass transformation counts for one optimized tape (surfaced by
/// `semlockc check --dump-tape` and the bench harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeOptStats {
    /// Redundant `Lock` ops deleted by acquisition fusion.
    pub fused: u32,
    /// Acquisition ops (`Lock` or `AcquireBatch`) rotated above a loop
    /// header.
    pub hoisted: u32,
    /// `AcquireBatch` ops emitted.
    pub batches: u32,
    /// Total `Lock` ops folded into batches.
    pub batch_members: u32,
}

impl TapeOptStats {
    /// Did any pass change the tape?
    pub fn any(&self) -> bool {
        self.fused + self.hoisted + self.batches > 0
    }
}

/// Optimize a lowered tape. Returns the optimized tape and the per-pass
/// transformation counts; if any internal consistency check fails the
/// original tape comes back unchanged with zeroed counts (the optimizer
/// never trades correctness for speed).
pub fn optimize(tape: &Tape) -> (Tape, TapeOptStats) {
    let mut t = tape.clone();
    let fused = fuse_redundant(&mut t);
    compact_noops(&mut t);
    let (batches, batch_members) = batch_runs(&mut t);
    compact_noops(&mut t);
    let stats = TapeOptStats {
        fused,
        batches,
        batch_members,
        hoisted: hoist_invariant(&mut t),
    };
    if validate(&t).is_err() {
        return (tape.clone(), TapeOptStats::default());
    }
    (t, stats)
}

/// The frame slot an op writes, if any.
fn written_slot(op: &LowOp) -> Option<u16> {
    match *op {
        LowOp::Const { dst, .. }
        | LowOp::Copy { dst, .. }
        | LowOp::IsNull { dst, .. }
        | LowOp::Not { dst, .. }
        | LowOp::Eq { dst, .. }
        | LowOp::Lt { dst, .. }
        | LowOp::Add { dst, .. }
        | LowOp::New { dst, .. } => Some(dst),
        LowOp::Call { ret, .. } if ret != NO_SLOT => Some(ret),
        _ => None,
    }
}

fn is_jump(op: &LowOp) -> bool {
    matches!(op, LowOp::Jump { .. } | LowOp::JumpIfFalse { .. })
}

/// `targeted[i]` ⇔ some jump in the tape lands on position `i`
/// (positions `0..=ops.len()`).
fn jump_target_set(ops: &[LowOp]) -> Vec<bool> {
    let mut targeted = vec![false; ops.len() + 1];
    for (pc, op) in ops.iter().enumerate() {
        if let LowOp::Jump { off } | LowOp::JumpIfFalse { off, .. } = *op {
            targeted[(pc as i64 + 1 + off as i64) as usize] = true;
        }
    }
    targeted
}

/// Acquisition fusion: delete `Lock` ops whose receiver slot was already
/// the target of an earlier `Lock` in the same basic block, with the
/// slot unwritten and no release in between. The engine dedups held
/// *instances* (not sites) before doing anything observable — a held or
/// null receiver skips out ahead of φ selection, checker registration,
/// the fault boundary, and telemetry — and reaching the later op at all
/// means the earlier acquisition succeeded, so the later op is a
/// guaranteed no-op whatever its site or keys (its key slots are never
/// even read, which is why key writes between the two don't matter).
/// Deleted ops become `Jump {off: 0}` placeholders for
/// [`compact_noops`].
fn fuse_redundant(t: &mut Tape) -> u32 {
    let targeted = jump_target_set(&t.ops);
    // Receiver slots provably lock-targeted on every path reaching here.
    let mut seen: Vec<u16> = Vec::new();
    let mut fused = 0;
    for (pc, &is_target) in targeted.iter().enumerate().take(t.ops.len()) {
        if is_target {
            // Block boundary: a joining path may not have locked.
            seen.clear();
        }
        match t.ops[pc] {
            LowOp::Jump { .. } | LowOp::JumpIfFalse { .. } | LowOp::UnlockAll => seen.clear(),
            LowOp::UnlockAllOf { recv } => seen.retain(|&r| r != recv),
            LowOp::Lock { recv, .. } => {
                if seen.contains(&recv) {
                    t.ops[pc] = LowOp::Jump { off: 0 };
                    fused += 1;
                } else {
                    seen.push(recv);
                }
            }
            // Conservative: group forms carry their own skip logic.
            LowOp::LockGroup { .. } | LowOp::AcquireBatch { .. } => seen.clear(),
            _ => {
                if let Some(w) = written_slot(&t.ops[pc]) {
                    seen.retain(|&r| r != w);
                }
            }
        }
    }
    fused
}

/// Loop-invariant hoisting by guarded rotation (see the module docs).
fn hoist_invariant(t: &mut Tape) -> u32 {
    let mut hoisted = 0;
    // Each successful hoist restarts the scan (positions shift); the
    // guard bounds pathological tapes, far above any real section.
    for _ in 0..64 {
        if !hoist_one(t) {
            break;
        }
        hoisted += 1;
    }
    hoisted
}

/// Is `op` a pure register op (reads and writes frame slots only — no
/// acquisition, release, allocation, call, or control transfer)? Pure
/// ops consume no fault-injection ordinal and have no observable effect
/// beyond their destination slot, so a block of them may be re-executed.
fn is_pure_reg(op: &LowOp) -> bool {
    matches!(
        op,
        LowOp::Const { .. }
            | LowOp::Copy { .. }
            | LowOp::IsNull { .. }
            | LowOp::Not { .. }
            | LowOp::Eq { .. }
            | LowOp::Lt { .. }
            | LowOp::Add { .. }
    )
}

/// The frame slots a pure register op reads.
fn read_slots(op: &LowOp) -> [Option<u16>; 2] {
    match *op {
        LowOp::Copy { src, .. } | LowOp::IsNull { src, .. } | LowOp::Not { src, .. } => {
            [Some(src), None]
        }
        LowOp::Eq { a, b, .. } | LowOp::Lt { a, b, .. } | LowOp::Add { a, b, .. } => {
            [Some(a), Some(b)]
        }
        _ => [None, None],
    }
}

/// Is the straight-line block `ops[h..jf]` pure and *repeatable* — does
/// running it twice from the same entry state leave the same registers
/// as running it once? Sufficient condition: every op is a pure register
/// op, and every slot an op reads is either never written by the block
/// or first written strictly before that op (so the second evaluation
/// reads the identical recomputed value, by induction).
fn block_repeatable(ops: &[LowOp], h: usize, jf: usize) -> bool {
    if !ops[h..jf].iter().all(is_pure_reg) {
        return false;
    }
    let first_write = |s: u16| (h..jf).find(|&i| written_slot(&ops[i]) == Some(s));
    for (i, op) in ops.iter().enumerate().take(jf).skip(h) {
        for s in read_slots(op).into_iter().flatten() {
            if first_write(s).is_some_and(|w| w >= i) {
                return false;
            }
        }
    }
    true
}

/// One hoisting step; returns whether a transformation was applied.
///
/// Matches the lowerer's while-form —
///
/// ```text
/// h:    <pure exit-test block>
/// jf:   JumpIfFalse cond → b+1
/// p:    Lock / AcquireBatch        (the candidate, first body op)
/// …     rest of body
/// b:    Jump → h                   (backedge)
/// ```
///
/// — and rewrites it to the guarded rotation
///
/// ```text
/// h:    <exit-test copy>
///       JumpIfFalse cond → EXIT    (guard)
///       Lock / AcquireBatch        (hoisted: runs once, iff ≥ 1 trip)
/// H:    <exit-test>
///       JumpIfFalse cond → EXIT
/// …     rest of body
///       Jump → H
/// ```
///
/// The executed op sequence is identical on every trip count: the test
/// block is pure and repeatable (evaluating it twice before the first
/// iteration is invisible), the acquisition runs exactly when and where
/// the original first-iteration acquisition ran, and iterations after
/// the first — where the original op was a held-instance no-op — skip
/// it entirely. Zero-trip runs fail the guard and acquire nothing.
fn hoist_one(t: &mut Tape) -> bool {
    let ops = &t.ops;
    let n = ops.len();
    // Backward `Jump`s are the loop backedges the lowerer emits.
    for b in 0..n {
        let h = match ops[b] {
            LowOp::Jump { off } if off < 0 => (b as i64 + 1 + off as i64) as usize,
            _ => continue,
        };
        // The loop region may not release (the hoisted acquisition must
        // stay covered by a release below the exit — the epilogue; and a
        // release of the candidate's instance inside the body would make
        // later re-acquisitions real, not held no-ops).
        if ops[h..=b]
            .iter()
            .any(|o| matches!(o, LowOp::UnlockAll | LowOp::UnlockAllOf { .. }))
        {
            continue;
        }
        // Loop shape: the first jump in the region is the exit test,
        // landing just past the backedge; everything above it is the
        // pure, repeatable condition block.
        let Some(jf) = (h..b).find(|&i| is_jump(&ops[i])) else {
            continue;
        };
        let cond = match ops[jf] {
            LowOp::JumpIfFalse { cond, off } if (jf as i64 + 1 + off as i64) as usize == b + 1 => {
                cond
            }
            _ => continue,
        };
        if !block_repeatable(ops, h, jf) {
            continue;
        }
        // The candidate acquisition must be the first body op, so the
        // rotation crosses nothing that consumes a fault ordinal or
        // touches state.
        let p = jf + 1;
        if p >= b {
            continue;
        }
        let members: Vec<(u16, u16)> = match ops[p] {
            LowOp::Lock { recv, site } => vec![(recv, site)],
            LowOp::AcquireBatch { start, len } => {
                t.group_pool[start as usize..start as usize + len as usize].to_vec()
            }
            _ => continue,
        };
        // Loop-invariant operands: every member's receiver and key slots
        // unwritten anywhere in the loop region (covers the condition
        // evaluation the hoisted op now precedes).
        let invariant = ops[h..=b].iter().all(|o| {
            written_slot(o).is_none_or(|w| {
                members.iter().all(|&(recv, site)| {
                    recv != w && !t.sites[site as usize].key_slots.contains(&w)
                })
            })
        });
        if !invariant {
            continue;
        }
        // Jump constraints: nothing may land inside the rotated span
        // (h, p], and only loop-internal jumps (and fall-through from
        // above) may enter at the header.
        let jumps: Vec<(usize, usize)> = ops
            .iter()
            .enumerate()
            .filter_map(|(q, o)| match *o {
                LowOp::Jump { off } | LowOp::JumpIfFalse { off, .. } => {
                    Some((q, (q as i64 + 1 + off as i64) as usize))
                }
                _ => None,
            })
            .collect();
        if jumps
            .iter()
            .any(|&(q, tg)| (tg > h && tg <= p) || (tg == h && q > b))
        {
            continue;
        }
        // Rebuild. Positions: the guard test copy sits at [h, jf), the
        // guard at jf, the acquisition stays at p = jf+1, the header
        // test at H = p+1, and everything from p+1 on shifts by the
        // k+1 inserted ops (k test ops + 1 guard).
        let k = jf - h;
        let exit_new = (b + k + 2) as i32;
        let hdr = (h + k + 2) as i32; // H
        let mut new_ops: Vec<LowOp> = Vec::with_capacity(n + k + 1);
        new_ops.extend_from_slice(&ops[..h]);
        new_ops.extend_from_slice(&ops[h..jf]); // guard test copy
        new_ops.push(LowOp::JumpIfFalse {
            cond,
            off: exit_new - (jf as i32 + 1),
        });
        new_ops.push(ops[p].clone());
        new_ops.extend_from_slice(&ops[h..jf]); // header test
        new_ops.push(LowOp::JumpIfFalse {
            cond,
            off: exit_new - (hdr + k as i32 + 1),
        });
        new_ops.extend_from_slice(&ops[p + 1..b]);
        new_ops.push(LowOp::Jump {
            off: h as i32 - b as i32, // → H from position b+k+1
        });
        new_ops.extend_from_slice(&ops[b + 1..]);
        // Remap every other jump: positions before the loop are fixed,
        // everything past the candidate shifts by k+1. A target at the
        // old header from outside runs the guard (h); from inside the
        // loop it skips guard and acquisition (H).
        let mut sound = true;
        for &(q, tg) in &jumps {
            if q == jf || q == b {
                continue; // rebuilt above
            }
            let q_new = if q < h { q } else { q + k + 1 };
            let t_new = if tg < h {
                tg
            } else if tg == h {
                if q < h {
                    h
                } else {
                    hdr as usize
                }
            } else {
                tg + k + 1
            };
            let off = t_new as i32 - (q_new as i32 + 1);
            match &mut new_ops[q_new] {
                LowOp::Jump { off: o } | LowOp::JumpIfFalse { off: o, .. } => *o = off,
                _ => {
                    sound = false;
                    break;
                }
            }
        }
        if !sound {
            continue;
        }
        let candidate = Tape {
            ops: new_ops,
            ..t.clone()
        };
        if validate(&candidate).is_ok() {
            *t = candidate;
            return true;
        }
    }
    false
}

/// Batched group admission: collapse each maximal straight-line run of
/// two or more `Lock` ops (no jump lands inside the run) into a single
/// [`LowOp::AcquireBatch`] over a fresh [`Tape::group_pool`] range.
/// Member order in the pool is the original op order; admission order at
/// run time is the canonical unique-id sort, as for `LockGroup`.
fn batch_runs(t: &mut Tape) -> (u32, u32) {
    let targeted = jump_target_set(&t.ops);
    let mut batches = 0;
    let mut members_total = 0;
    let mut pc = 0;
    while pc < t.ops.len() {
        if !matches!(t.ops[pc], LowOp::Lock { .. }) {
            pc += 1;
            continue;
        }
        let mut end = pc + 1;
        while end < t.ops.len() && matches!(t.ops[end], LowOp::Lock { .. }) && !targeted[end] {
            end += 1;
        }
        let len = end - pc;
        if len >= 2 {
            let start = u32::try_from(t.group_pool.len()).expect("group pool overflow");
            for i in pc..end {
                if let LowOp::Lock { recv, site } = t.ops[i] {
                    t.group_pool.push((recv, site));
                }
            }
            t.ops[pc] = LowOp::AcquireBatch {
                start,
                len: u16::try_from(len).expect("batch overflow"),
            };
            for op in &mut t.ops[pc + 1..end] {
                *op = LowOp::Jump { off: 0 };
            }
            batches += 1;
            members_total += len as u32;
        }
        pc = end;
    }
    (batches, members_total)
}

/// Remove every `Jump {off: 0}` (an unconditional fall-through — the
/// placeholder form fusion and batching leave behind, and a no-op
/// wherever it came from), remapping all jump offsets across the
/// deletions. A jump that targeted a deleted op lands on the next
/// surviving one, which is where the fall-through went anyway.
fn compact_noops(t: &mut Tape) {
    let n = t.ops.len();
    let keep: Vec<bool> = t
        .ops
        .iter()
        .map(|o| !matches!(o, LowOp::Jump { off: 0 }))
        .collect();
    if keep.iter().all(|&k| k) {
        return;
    }
    // new_idx[i] = number of kept ops before old position i — both the
    // new position of a kept op and the landing position of any target.
    let mut new_idx = vec![0usize; n + 1];
    let mut cnt = 0usize;
    for i in 0..n {
        new_idx[i] = cnt;
        if keep[i] {
            cnt += 1;
        }
    }
    new_idx[n] = cnt;
    let mut new_ops = Vec::with_capacity(cnt);
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        let mut op = t.ops[i].clone();
        if let LowOp::Jump { off } | LowOp::JumpIfFalse { off, .. } = &mut op {
            let t_old = (i as i64 + 1 + *off as i64) as usize;
            *off = new_idx[t_old] as i32 - (new_idx[i] as i32 + 1);
        }
        new_ops.push(op);
    }
    t.ops = new_ops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::SiteRef;
    use semlock::mode::LockSiteId;
    use semlock::value::Value;

    /// A hand-built tape over `n_slots` slots and one or two lock sites
    /// (site keys: site 0 keys on slot 0, site 1 keys on slot 1).
    fn tape(ops: Vec<LowOp>, n_slots: u16) -> Tape {
        let site = |k: u16, id: u32| SiteRef {
            class: "Set".into(),
            rt_site: LockSiteId(0),
            stable_id: id,
            key_slots: vec![k],
        };
        Tape {
            section: "t".into(),
            ops,
            vars: Vec::new(),
            n_slots,
            sites: vec![site(0, 1), site(1, 2)],
            calls: Vec::new(),
            classes: Vec::new(),
            arg_pool: Vec::new(),
            group_pool: Vec::new(),
        }
    }

    #[test]
    fn fuses_redundant_same_block_lock() {
        let t = tape(
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Const {
                    dst: 3,
                    val: Value(7),
                },
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::UnlockAll,
            ],
            4,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.fused, 1);
        assert_eq!(
            o.ops,
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Const {
                    dst: 3,
                    val: Value(7),
                },
                LowOp::UnlockAll,
            ]
        );
        validate(&o).unwrap();
    }

    #[test]
    fn fuses_same_receiver_across_sites() {
        // The held-instance skip dedups on the receiver, not the site:
        // a re-lock of slot 2 through a *different* site fuses, and a
        // write to the second site's key slot (slot 1) between the two
        // is irrelevant — the fused op never reads its keys.
        let t = tape(
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Const {
                    dst: 1,
                    val: Value(9),
                },
                LowOp::Lock { recv: 2, site: 1 },
                LowOp::UnlockAll,
            ],
            4,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.fused, 1);
        assert_eq!(
            o.ops,
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Const {
                    dst: 1,
                    val: Value(9),
                },
                LowOp::UnlockAll,
            ]
        );
        validate(&o).unwrap();
    }

    #[test]
    fn fusion_respects_recv_writes_and_releases() {
        // Writing the receiver slot between the locks kills fusion — the
        // slot may now hold a different (unheld) instance.
        let t = tape(
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Const {
                    dst: 2,
                    val: Value(9),
                },
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::UnlockAll,
            ],
            4,
        );
        let (_, s) = optimize(&t);
        assert_eq!(s.fused, 0);
        // So does a release of the receiver.
        let t = tape(
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::UnlockAllOf { recv: 2 },
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::UnlockAll,
            ],
            4,
        );
        let (_, s) = optimize(&t);
        assert_eq!(s.fused, 0);
    }

    #[test]
    fn batches_straight_line_lock_run() {
        let t = tape(
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Lock { recv: 3, site: 1 },
                LowOp::Lock { recv: 4, site: 0 },
                LowOp::UnlockAll,
            ],
            5,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_members, 3);
        assert_eq!(
            o.ops,
            vec![LowOp::AcquireBatch { start: 0, len: 3 }, LowOp::UnlockAll]
        );
        assert_eq!(o.group_pool, vec![(2, 0), (3, 1), (4, 0)]);
        validate(&o).unwrap();
    }

    #[test]
    fn no_batch_across_jump_target() {
        // Jump lands between the two locks: not one straight line.
        let t = tape(
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 1 }, // → 2
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::Lock { recv: 3, site: 1 },
                LowOp::UnlockAll,
            ],
            4,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.batches, 0);
        assert_eq!(o.ops.len(), 4);
        validate(&o).unwrap();
    }

    #[test]
    fn hoists_invariant_lock_above_loop() {
        // while (slot0) { Lock(recv=1, site=1 keyed on slot 1); call… } —
        // the receiver and key are never written in the loop. Guarded
        // rotation: a copy of the exit test guards the hoisted lock, so
        // the zero-trip path still acquires nothing.
        let t = tape(
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 3 }, // exit → 4
                LowOp::Lock { recv: 1, site: 1 },
                LowOp::Not { dst: 2, src: 2 }, // body work
                LowOp::Jump { off: -4 },       // backedge → 0
                LowOp::UnlockAll,
            ],
            3,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.hoisted, 1, "{:?}", o.ops);
        assert_eq!(
            o.ops,
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 4 }, // guard → 5 (EXIT)
                LowOp::Lock { recv: 1, site: 1 },       // hoisted, runs once
                LowOp::JumpIfFalse { cond: 0, off: 2 }, // header exit → 5
                LowOp::Not { dst: 2, src: 2 },
                LowOp::Jump { off: -3 }, // backedge → 2 (skips the lock)
                LowOp::UnlockAll,
            ]
        );
        validate(&o).unwrap();
    }

    #[test]
    fn rotation_duplicates_a_pure_repeatable_test_block() {
        // The exit test computes `cond = !(slot1 == slot0)` into temps;
        // rotation copies it as the guard. An op like `Add x, x, 1`
        // (reads its own destination) would make the block unrepeatable
        // and must block the hoist.
        let t = tape(
            vec![
                LowOp::Eq { dst: 2, a: 1, b: 0 },
                LowOp::Not { dst: 2, src: 2 },
                LowOp::JumpIfFalse { cond: 2, off: 2 }, // exit → 5
                LowOp::Lock { recv: 1, site: 1 },
                LowOp::Jump { off: -5 }, // backedge → 0
                LowOp::UnlockAll,
            ],
            3,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.hoisted, 1, "{:?}", o.ops);
        assert_eq!(
            o.ops,
            vec![
                LowOp::Eq { dst: 2, a: 1, b: 0 }, // guard test copy
                LowOp::Not { dst: 2, src: 2 },
                LowOp::JumpIfFalse { cond: 2, off: 5 }, // guard → 8 (EXIT)
                LowOp::Lock { recv: 1, site: 1 },       // hoisted
                LowOp::Eq { dst: 2, a: 1, b: 0 },       // header test
                LowOp::Not { dst: 2, src: 2 },
                LowOp::JumpIfFalse { cond: 2, off: 1 }, // header exit → 8
                LowOp::Jump { off: -4 },                // backedge → 4
                LowOp::UnlockAll,
            ]
        );
        validate(&o).unwrap();
        // Self-updating test op: not repeatable, no rotation.
        let t = tape(
            vec![
                LowOp::Add { dst: 2, a: 2, b: 0 }, // reads its own dst
                LowOp::JumpIfFalse { cond: 2, off: 2 },
                LowOp::Lock { recv: 1, site: 1 },
                LowOp::Jump { off: -4 },
                LowOp::UnlockAll,
            ],
            3,
        );
        let (_, s) = optimize(&t);
        assert_eq!(s.hoisted, 0);
    }

    #[test]
    fn no_hoist_when_loop_writes_key_or_releases() {
        // Loop body writes the key slot the site reads.
        let t = tape(
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 3 },
                LowOp::Lock { recv: 2, site: 1 },
                LowOp::Add { dst: 1, a: 1, b: 0 }, // key slot 1 written
                LowOp::Jump { off: -4 },
                LowOp::UnlockAll,
            ],
            3,
        );
        let (_, s) = optimize(&t);
        assert_eq!(s.hoisted, 0);
        // Loop body releases: the acquisition is not section-scoped.
        let t = tape(
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 3 },
                LowOp::Lock { recv: 1, site: 1 },
                LowOp::UnlockAllOf { recv: 1 },
                LowOp::Jump { off: -4 },
                LowOp::UnlockAll,
            ],
            3,
        );
        let (_, s) = optimize(&t);
        assert_eq!(s.hoisted, 0);
    }

    #[test]
    fn batched_run_inside_loop_hoists_as_a_unit() {
        // Two invariant locks at the head of a loop body batch first,
        // then the whole `AcquireBatch` rotates above the loop.
        let t = tape(
            vec![
                LowOp::Lock { recv: 2, site: 0 },       // pre-loop lock
                LowOp::JumpIfFalse { cond: 0, off: 3 }, // exit → 5
                LowOp::Lock { recv: 1, site: 1 },
                LowOp::Lock { recv: 3, site: 0 },
                LowOp::Jump { off: -4 }, // backedge → 1
                LowOp::UnlockAll,
            ],
            4,
        );
        let (o, s) = optimize(&t);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_members, 2);
        assert_eq!(s.hoisted, 1, "{:?}", o.ops);
        assert_eq!(
            o.ops,
            vec![
                LowOp::Lock { recv: 2, site: 0 },
                LowOp::JumpIfFalse { cond: 0, off: 3 }, // guard → 5 (EXIT)
                LowOp::AcquireBatch { start: 0, len: 2 }, // hoisted batch
                LowOp::JumpIfFalse { cond: 0, off: 1 }, // header exit → 5
                LowOp::Jump { off: -2 },                // backedge → 3
                LowOp::UnlockAll,
            ]
        );
        assert_eq!(o.group_pool, vec![(1, 1), (3, 0)]);
        validate(&o).unwrap();
    }

    #[test]
    fn compaction_remaps_jumps_over_noops() {
        let mut t = tape(
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 2 }, // → 3
                LowOp::Jump { off: 0 },                 // placeholder
                LowOp::Const {
                    dst: 1,
                    val: Value(1),
                },
                LowOp::UnlockAll,
            ],
            2,
        );
        compact_noops(&mut t);
        assert_eq!(
            t.ops,
            vec![
                LowOp::JumpIfFalse { cond: 0, off: 1 }, // → 2
                LowOp::Const {
                    dst: 1,
                    val: Value(1),
                },
                LowOp::UnlockAll,
            ]
        );
        validate(&t).unwrap();
    }

    #[test]
    fn optimizer_is_identity_on_lock_free_tapes() {
        let t = tape(
            vec![
                LowOp::Const {
                    dst: 0,
                    val: Value(1),
                },
                LowOp::Add { dst: 1, a: 0, b: 0 },
                LowOp::UnlockAll,
            ],
            2,
        );
        let (o, s) = optimize(&t);
        assert!(!s.any());
        assert_eq!(o.ops, t.ops);
    }
}
