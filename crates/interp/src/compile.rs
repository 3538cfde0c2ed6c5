//! The compiled execution engine: resolved op tapes + the dispatch loop.
//!
//! [`synth::lower`] flattens each synthesized section into an engine-
//! agnostic [`Tape`] that names classes and methods by string. This module
//! performs the second, environment-dependent half of the compilation —
//! resolving every `CallRef` to a [`MethodIdx`] against the schema the
//! receiver instance will actually carry, and every `SiteRef` to an
//! `Arc<ModeTable>` — and then drives the tape with a tight `pc`-indexed
//! dispatch loop over a dense `Vec<Value>` register frame.
//!
//! A warm run allocates nothing: the register file, the group-lock
//! scratch and the `RunState` buffers are recycled through a per-thread
//! `Scratch` pool, and the [`Frame`] it returns holds its values inline
//! and borrows its names from the [`CompiledSection`]. Nor does it write
//! a cache line another worker reads, beyond the lock words and ADTs of
//! the instances it uses: every op borrows its receiver from the
//! insert-only [`crate::env::Registry`] (two loads, no reference count),
//! and a lock site evaluates `ModeTable::select` directly — a multiply, a
//! shift and a table load, cheaper than any cache in front of it
//! (EXPERIMENTS.md, "The compiled request path").
//!
//! The engine is behaviorally identical to the tree-walker: it shares the
//! `RunState`, the acquisition/release helpers, the fault-injection
//! boundaries (`Lock`/`OpStart`/`OpEnd`/`Unlock`, in the same order at the
//! same per-transaction step ordinals), checker callbacks, poisoning, and
//! telemetry attribution. `crates/interp/tests/equivalence.rs` holds the
//! two engines to bitwise-identical observable behavior under randomized
//! programs, schedules, and fault plans.

use crate::env::Env;
use crate::exec::{Engine, Interp, RunState, Strategy, FUEL};
use crate::frame::Frame;
use semlock::error::LockError;
use semlock::mode::{LockSiteId, ModeId, ModeTable};
use semlock::schema::MethodIdx;
use semlock::telemetry;
use semlock::value::Value;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use synth::lower::{self, LowOp, Tape, NO_SLOT};

/// A lock site with its mode table and runtime ids fully resolved.
struct ResolvedSite {
    table: Arc<ModeTable>,
    rt_site: LockSiteId,
    stable_id: u32,
    key_slots: Box<[u16]>,
}

/// One compiled section: the lowered tape plus environment-resolved pools.
pub struct CompiledSection {
    tape: Tape,
    /// What [`synth::tape_opt`] did to this tape (zeroed when compiled
    /// with optimization disabled).
    opt_stats: synth::tape_opt::TapeOptStats,
    /// Parallel to `tape.calls`.
    methods: Box<[MethodIdx]>,
    /// Parallel to `tape.sites`.
    sites: Box<[ResolvedSite]>,
    /// Wrapper pointer slots bound to their global instances at frame
    /// initialization.
    wrapper_binds: Vec<(u16, Value)>,
    /// Declared variable names in slot order (lent to every [`Frame`]
    /// this section produces). Caller arguments bind by a linear scan —
    /// sections declare a handful of short names, so the scan beats
    /// hashing the argument name.
    names: Box<[String]>,
    /// Initial register values: NULL for pointers, 0 for scalars/temps,
    /// wrapper handles pre-bound.
    init: Box<[Value]>,
}

impl CompiledSection {
    /// Section name.
    pub fn name(&self) -> &str {
        &self.tape.section
    }

    /// Number of ops on the tape.
    pub fn op_count(&self) -> usize {
        self.tape.ops.len()
    }

    /// The tape-optimizer transformation counts for this section.
    pub fn opt_stats(&self) -> synth::tape_opt::TapeOptStats {
        self.opt_stats
    }

    /// The lock sites this compilation actually resolved, as facts the
    /// SL008 audit (`synth::tape_audit::check_resolved_sites`) can verify
    /// against the synthesized program — the bound mode table and runtime
    /// site id are the exact values the admission path will use.
    pub fn site_facts(&self) -> Vec<synth::tape_audit::ResolvedSiteFact> {
        self.sites
            .iter()
            .zip(&self.tape.sites) // parallel arrays; the tape keeps the class name
            .map(|(s, tape_site)| synth::tape_audit::ResolvedSiteFact {
                section: self.tape.section.clone(),
                class: tape_site.class.clone(),
                rt_site: s.rt_site,
                stable_id: s.stable_id,
                key_count: s.key_slots.len(),
                table: s.table.clone(),
            })
            .collect()
    }
}

/// Resolve the `MethodIdx` a call will dispatch with at run time. Receiver
/// instances are either `adts` instances (created by `Env::new_instance`)
/// or global-wrapper instances, so the authoritative schema is the class's
/// `adts` schema or the wrapper schema respectively — *not* necessarily
/// the synthesis registry's copy.
fn method_of(env: &Env, class: &str, method: &str) -> MethodIdx {
    if let Some(w) = env.program.wrappers.iter().find(|w| w.name == class) {
        return w.schema.method(method);
    }
    adts::schema_of(class).method(method)
}

/// Compile one lowered tape against an environment.
pub fn compile_tape(env: &Env, tape: Tape) -> CompiledSection {
    lower::validate(&tape).unwrap_or_else(|e| panic!("invalid tape for {}: {e}", tape.section));
    let methods: Box<[MethodIdx]> = tape
        .calls
        .iter()
        .map(|c| method_of(env, &c.class, &c.method))
        .collect();
    let sites: Box<[ResolvedSite]> = tape
        .sites
        .iter()
        .map(|s| ResolvedSite {
            table: env.program.tables.table(&s.class).clone(),
            rt_site: s.rt_site,
            stable_id: s.stable_id,
            key_slots: s.key_slots.clone().into_boxed_slice(),
        })
        .collect();
    let slot_index: HashMap<String, u16> = tape
        .vars
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.clone(), i as u16))
        .collect();
    let names: Box<[String]> = tape.vars.iter().map(|(n, _)| n.clone()).collect();
    let mut init = vec![Value(0); tape.n_slots as usize];
    for (i, (_, ty)) in tape.vars.iter().enumerate() {
        if matches!(ty, synth::ir::VarType::Ptr(_)) {
            init[i] = Value::NULL;
        }
    }
    let mut wrapper_binds = Vec::new();
    for w in &env.program.wrappers {
        if let Some(&slot) = slot_index.get(&w.pointer) {
            let handle = env.wrapper_handle(&w.name);
            init[slot as usize] = handle;
            wrapper_binds.push((slot, handle));
        }
    }
    CompiledSection {
        tape,
        opt_stats: synth::tape_opt::TapeOptStats::default(),
        methods,
        sites,
        wrapper_binds,
        names,
        init: init.into_boxed_slice(),
    }
}

/// Compile one section with the tape optimizer enabled.
pub fn compile_section(env: &Env, section: &synth::ir::AtomicSection) -> CompiledSection {
    compile_section_opt(env, section, true)
}

/// Compile one section, optionally running the [`synth::tape_opt`]
/// passes between lowering and resolution.
pub fn compile_section_opt(
    env: &Env,
    section: &synth::ir::AtomicSection,
    opt: bool,
) -> CompiledSection {
    let raw = lower::lower_section(section, &env.program.tables);
    if !opt {
        return compile_tape(env, raw);
    }
    let (tape, stats) = synth::tape_opt::optimize(&raw);
    let mut cs = compile_tape(env, tape);
    cs.opt_stats = stats;
    cs
}

/// Compile every section of the environment's program. Returned as a
/// name-ordered list: programs hold a handful of sections with short
/// names, so lookup is a linear scan rather than a string hash.
pub fn compile_program(env: &Env) -> Vec<(String, Arc<CompiledSection>)> {
    compile_program_opt(env, true)
}

/// [`compile_program`] with the tape optimizer switchable (see
/// [`crate::Interp::without_tape_opt`]).
pub fn compile_program_opt(env: &Env, opt: bool) -> Vec<(String, Arc<CompiledSection>)> {
    env.program
        .sections
        .iter()
        .map(|s| (s.name.clone(), Arc::new(compile_section_opt(env, s, opt))))
        .collect()
}

/// One member of an in-flight [`LowOp::AcquireBatch`], after the
/// per-member prologue (null/held skips, φ mode selection, checker
/// registration, Lock fault boundary) ran in original op order.
struct BatchMember {
    /// Instance id (the pool outlives any borrow of the environment).
    id: u64,
    mode: ModeId,
    stable_id: u32,
}

/// Per-thread run scratch, recycled across compiled runs so a warm run
/// performs no heap allocation: the register file, the group-lock
/// buffers, and the `RunState` buffers are all reused. It holds values
/// and ids only — nothing that refers to one environment — because the
/// pool outlives any particular `Interp`.
struct Scratch {
    regs: Vec<Value>,
    group: Vec<(u64, Value, u16)>,
    /// Batched-admission member buffer (pool order).
    batch: Vec<BatchMember>,
    /// Canonical admission order: indices into `batch`, sorted by
    /// instance unique id.
    border: Vec<usize>,
    st: RunState,
}

thread_local! {
    // Boxed deliberately (clippy::vec_box): take/put then move one
    // pointer per run instead of memcpying the ~250-byte struct twice.
    #[allow(clippy::vec_box)]
    static SCRATCH_POOL: std::cell::RefCell<Vec<Box<Scratch>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn scratch_take(txn: u64, init: &[Value]) -> Box<Scratch> {
    let mut s = SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_else(|| {
            Box::new(Scratch {
                regs: Vec::new(),
                group: Vec::new(),
                batch: Vec::new(),
                border: Vec::new(),
                st: RunState::new(0),
            })
        });
    s.st.reset(txn);
    s.regs.clear();
    s.regs.extend_from_slice(init);
    s.group.clear();
    s.batch.clear();
    s.border.clear();
    s
}

fn scratch_put(s: Box<Scratch>) {
    SCRATCH_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < 8 {
            pool.push(s);
        }
    });
}

/// Run one compiled section as transaction `txn`: the counterpart of
/// `Interp::try_run_section_as`, with the same global-lock placement,
/// unwind safety, and abort cleanup. `Interp::run_with_retry` passes each
/// attempt a fresh id and, once escalated, the patience threaded through
/// the pooled `RunState`.
pub(crate) fn run_compiled_as<'a>(
    interp: &Interp,
    cs: &'a CompiledSection,
    args: &[(&str, Value)],
    txn: u64,
    escalate: Option<std::time::Duration>,
) -> Result<Frame<'a>, LockError> {
    debug_assert_eq!(interp.engine(), Engine::Compiled);
    let mut scratch = scratch_take(txn, &cs.init);
    scratch.st.escalate_patience = escalate;
    for (name, v) in args {
        let slot = cs
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no variable named {name} in section {}", cs.name()));
        scratch.regs[slot] = *v;
    }
    // Wrapper pointers always refer to their global instances, even if a
    // caller binding overwrote the slot.
    for &(slot, handle) in &cs.wrapper_binds {
        scratch.regs[slot as usize] = handle;
    }

    if interp.strategy == Strategy::Global {
        interp.global.lock();
    }
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        dispatch(interp, cs, &mut scratch)?;
        interp.release_all(&mut scratch.st);
        Ok(())
    }));
    let result = match outcome {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => {
            interp.abort_cleanup(&mut scratch.st);
            Err(e)
        }
        Err(payload) => {
            // The scratch is *not* pooled on this path: the panic may have
            // unwound mid-helper, so its buffers are in an unknown state.
            interp.abort_cleanup(&mut scratch.st);
            if interp.strategy == Strategy::Global {
                interp.global.unlock();
            }
            panic::resume_unwind(payload);
        }
    };
    if interp.strategy == Strategy::Global {
        interp.global.unlock();
    }
    let frame = result.map(|()| Frame::borrowed(&cs.names, &scratch.regs[..cs.names.len()]));
    scratch_put(scratch);
    frame
}

/// The dispatch loop.
fn dispatch(interp: &Interp, cs: &CompiledSection, scratch: &mut Scratch) -> Result<(), LockError> {
    let env: &Env = &interp.env;
    let ops = &cs.tape.ops[..];
    // `group` is the group-lock scratch: (instance id, handle, site
    // index). Everything lives in the pooled `Scratch`, so a warm run
    // allocates nothing.
    let Scratch {
        regs,
        group,
        batch,
        border,
        st,
    } = scratch;
    let mut fuel: u64 = FUEL;
    let mut pc: usize = 0;
    while pc < ops.len() {
        fuel = fuel
            .checked_sub(1)
            .expect("atomic section exceeded its fuel (runaway loop?)");
        match ops[pc] {
            LowOp::Const { dst, val } => regs[dst as usize] = val,
            LowOp::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            LowOp::IsNull { dst, src } => {
                regs[dst as usize] = Value::from_bool(regs[src as usize].is_null());
            }
            LowOp::Not { dst, src } => {
                regs[dst as usize] = Value::from_bool(!regs[src as usize].as_bool());
            }
            LowOp::Eq { dst, a, b } => {
                regs[dst as usize] = Value::from_bool(regs[a as usize] == regs[b as usize]);
            }
            LowOp::Lt { dst, a, b } => {
                regs[dst as usize] = Value::from_bool(regs[a as usize].0 < regs[b as usize].0);
            }
            LowOp::Add { dst, a, b } => {
                regs[dst as usize] = Value(regs[a as usize].0.wrapping_add(regs[b as usize].0));
            }
            LowOp::New { dst, class } => {
                let class = &cs.tape.classes[class as usize];
                let handle = env.new_instance(class);
                if let Some(c) = &interp.checker {
                    if env.program.tables.contains(class) {
                        c.register_instance(handle.0, env.program.tables.table(class).clone());
                    }
                }
                regs[dst as usize] = handle;
            }
            LowOp::Call {
                call,
                ret,
                recv,
                args_start,
                args_len,
            } => {
                let adt = env.resolve_ref(regs[recv as usize]);
                let mut argv = std::mem::take(&mut st.scratch_argv);
                argv.clear();
                let arg_slots =
                    &cs.tape.arg_pool[args_start as usize..args_start as usize + args_len as usize];
                argv.extend(arg_slots.iter().map(|&s| regs[s as usize]));
                let result = interp.invoke_adt(adt, cs.methods[call as usize], &argv, st);
                st.scratch_argv = argv;
                if ret != NO_SLOT {
                    regs[ret as usize] = result;
                }
            }
            LowOp::Jump { off } => {
                pc = jump(pc, off);
                continue;
            }
            LowOp::JumpIfFalse { cond, off } => {
                if !regs[cond as usize].as_bool() {
                    pc = jump(pc, off);
                    continue;
                }
            }
            LowOp::Lock { recv, site } => {
                let handle = regs[recv as usize];
                if !handle.is_null() {
                    acquire_site(interp, cs, site, handle, regs, st)?;
                }
            }
            LowOp::LockGroup { start, len } => {
                // Dynamic ordering by unique instance id (Fig. 12). The
                // pointer value *is* the instance id, so no resolution is
                // needed to sort.
                group.clear();
                let entries = &cs.tape.group_pool[start as usize..start as usize + len as usize];
                group.extend(entries.iter().filter_map(|&(slot, site)| {
                    let handle = regs[slot as usize];
                    if handle.is_null() {
                        None
                    } else {
                        Some((env.resolve_ref(handle).id, handle, site))
                    }
                }));
                group.sort_by_key(|&(id, _, _)| id);
                for &(_, handle, site) in group.iter() {
                    acquire_site(interp, cs, site, handle, regs, st)?;
                }
            }
            LowOp::AcquireBatch { start, len } => {
                let entries = &cs.tape.group_pool[start as usize..start as usize + len as usize];
                match interp.strategy {
                    Strategy::Global => {}
                    Strategy::TwoPhase => {
                        // Identical to the per-op path: plain locks in
                        // original op order with held-instance dedup.
                        for &(slot, _) in entries {
                            let handle = regs[slot as usize];
                            if !handle.is_null() {
                                st.lock_plain(env.resolve_ref(handle));
                            }
                        }
                    }
                    Strategy::Semantic => {
                        acquire_batch(interp, cs, entries, regs, batch, border, st)?;
                    }
                }
            }
            LowOp::UnlockAllOf { recv } => {
                let handle = regs[recv as usize];
                if !handle.is_null() {
                    interp.release_one(handle, st);
                }
            }
            LowOp::UnlockAll => interp.release_all(st),
        }
        pc += 1;
    }
    Ok(())
}

#[inline]
fn jump(pc: usize, off: i32) -> usize {
    (pc as i64 + 1 + off as i64) as usize
}

/// Acquire a lock site on the instance behind `handle` (non-null), per
/// the active strategy, with the held-instance skip.
fn acquire_site(
    interp: &Interp,
    cs: &CompiledSection,
    site: u16,
    handle: Value,
    regs: &[Value],
    st: &mut RunState,
) -> Result<(), LockError> {
    match interp.strategy {
        Strategy::Global => Ok(()),
        Strategy::TwoPhase => {
            st.lock_plain(interp.env.resolve_ref(handle));
            Ok(())
        }
        Strategy::Semantic => {
            if st.held_sem.iter().any(|&(id, _)| id == handle.0) {
                return Ok(());
            }
            let adt = interp.env.resolve_ref(handle);
            let rs = &cs.sites[site as usize];
            let mode = select_mode(rs, regs, st);
            interp.lock_prologue(adt, &rs.table, mode, st)?;
            interp.acquire_semantic_admit(adt, mode, rs.stable_id, st)
        }
    }
}

/// Select the locking mode for a site from the current values of its key
/// slots (`φ` per key, then one table load).
fn select_mode(rs: &ResolvedSite, regs: &[Value], st: &mut RunState) -> ModeId {
    let mut keys = std::mem::take(&mut st.scratch_keys);
    keys.clear();
    keys.extend(rs.key_slots.iter().map(|&s| regs[s as usize]));
    let mode = rs.table.select(rs.rt_site, &keys);
    st.scratch_keys = keys;
    mode
}

/// Batched semantic admission for a [`LowOp::AcquireBatch`].
///
/// Phase A replays the unoptimized per-op prologue in original op order:
/// null and held-instance skips, in-batch dedup (a second acquisition of
/// an instance the batch already contains would have been a held no-op),
/// φ mode selection, checker registration, and the Lock fault boundary —
/// so the per-transaction fault-step ordinals are exactly those the
/// individual `Lock` ops would have consumed.
///
/// Phase B admits the surviving members through the non-blocking group
/// fast path in canonical unique-id order (Fig. 12): one `try_lock` per
/// member — inside the manager, one admission CAS per partition word.
/// On any refusal the already-admitted members are rolled back in
/// reverse canonical order through the full unlock path (waiter handoff
/// runs), and the batch escalates to the sequential blocking protocol in
/// original op order — byte-identical behavior, error identity, and
/// partial-hold state to the unoptimized tape under contention.
fn acquire_batch(
    interp: &Interp,
    cs: &CompiledSection,
    entries: &[(u16, u16)],
    regs: &[Value],
    batch: &mut Vec<BatchMember>,
    border: &mut Vec<usize>,
    st: &mut RunState,
) -> Result<(), LockError> {
    batch.clear();
    for &(slot, site) in entries {
        let handle = regs[slot as usize];
        if handle.is_null()
            || st.held_sem.iter().any(|&(id, _)| id == handle.0)
            || batch.iter().any(|m| m.id == handle.0)
        {
            continue;
        }
        let adt = interp.env.resolve_ref(handle);
        let rs = &cs.sites[site as usize];
        let mode = select_mode(rs, regs, st);
        interp.lock_prologue(adt, &rs.table, mode, st)?;
        batch.push(BatchMember {
            id: adt.id,
            mode,
            stable_id: rs.stable_id,
        });
    }
    if batch.len() <= 1 {
        if let Some(m) = batch.pop() {
            return interp.acquire_semantic_admit(interp.instance(m.id), m.mode, m.stable_id, st);
        }
        return Ok(());
    }
    // An instance's id is its lock's `unique()`: sorting by id is the
    // canonical order.
    border.clear();
    border.extend(0..batch.len());
    border.sort_unstable_by_key(|&i| batch[i].id);
    let mut refused = None;
    for (k, &i) in border.iter().enumerate() {
        let m = &batch[i];
        if telemetry::enabled() {
            telemetry::set_context(st.txn, m.stable_id);
        }
        if interp
            .instance(m.id)
            .sem()
            .try_lock_checked(m.mode)
            .is_err()
        {
            refused = Some(k);
            break;
        }
    }
    match refused {
        None => {
            // All admitted; record in original op order so the held set
            // (and therefore release order, unlock fault coordinates,
            // and checker callbacks) matches the unoptimized tape.
            for m in batch.drain(..) {
                if let Some(c) = &interp.checker {
                    c.on_lock(st.txn, m.id, m.mode);
                }
                st.held_sem.push((m.id, m.mode));
                st.held_sites.push(m.stable_id);
            }
            Ok(())
        }
        Some(k) => {
            for &i in border[..k].iter().rev() {
                let m = &batch[i];
                if telemetry::enabled() {
                    telemetry::set_context(st.txn, m.stable_id);
                }
                interp.instance(m.id).sem().unlock(m.mode);
            }
            for m in batch.drain(..) {
                interp.acquire_semantic_admit(interp.instance(m.id), m.mode, m.stable_id, st)?;
            }
            Ok(())
        }
    }
}
