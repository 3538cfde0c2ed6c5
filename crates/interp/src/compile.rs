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
        methods,
        sites,
        wrapper_binds,
        names,
        init: init.into_boxed_slice(),
    }
}

/// Lower and compile one section.
pub fn compile_section(env: &Env, section: &synth::ir::AtomicSection) -> CompiledSection {
    compile_tape(env, lower::lower_section(section, &env.program.tables))
}

/// Compile every section of the environment's program. Returned as a
/// name-ordered list: programs hold a handful of sections with short
/// names, so lookup is a linear scan rather than a string hash.
pub fn compile_program(env: &Env) -> Vec<(String, Arc<CompiledSection>)> {
    env.program
        .sections
        .iter()
        .map(|s| (s.name.clone(), Arc::new(compile_section(env, s))))
        .collect()
}

/// Per-thread run scratch, recycled across compiled runs so a warm run
/// performs no heap allocation: the register file, the group-lock
/// buffers, and the `RunState` buffers are all reused. It holds values
/// and ids only — nothing that refers to one environment — because the
/// pool outlives any particular `Interp`.
struct Scratch {
    regs: Vec<Value>,
    group: Vec<(u64, Value, u16)>,
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
                st: RunState::new(0),
            })
        });
    s.st.reset(txn);
    s.regs.clear();
    s.regs.extend_from_slice(init);
    s.group.clear();
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
    let Scratch { regs, group, st } = scratch;
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
            interp.acquire_semantic(adt, &rs.table, mode, rs.stable_id, st)
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
