//! Lowering synthesized atomic sections to a flat, register-based op tape.
//!
//! The tree-walking interpreter in `interp` pays for a `HashMap<String,
//! Value>` frame lookup, a `String` clone, or a recursive `Expr` match on
//! nearly every statement it executes. The paper's compiler has none of
//! these costs: it emits locking calls *into* the program, so at run time
//! only the semantic-lock admission itself is left (§5.3). This module is
//! the analogous one-time compilation step for our IR: each section is
//! lowered once into a [`Tape`] — a flat vector of [`LowOp`]s over dense
//! variable *slots* — which an execution engine can drive with a tight
//! `pc`-indexed dispatch loop.
//!
//! What the lowering pre-resolves, so the hot loop never does:
//!
//! * **Variable slots.** Every declared variable gets a dense `u16` slot
//!   (declaration order); expression temporaries are appended after them.
//!   Frame = `Vec<Value>`, no hashing, no `String` clones.
//! * **Control flow.** `If`/`While` become relative [`LowOp::Jump`] /
//!   [`LowOp::JumpIfFalse`] offsets over the tape; loop fuel accounting is
//!   folded into the back-edge.
//! * **Lock sites.** Each referenced `LS(l)` site becomes a `SiteRef`
//!   carrying the runtime [`LockSiteId`] (normally re-derived per
//!   acquisition via two string-keyed map lookups in `ClassTables`), the
//!   stable telemetry id, and the key-variable slots for `ModeTable::select`.
//! * **Calls.** Argument expressions are flattened into slot ranges in a
//!   shared pool; the method *name* is kept so the engine can resolve the
//!   `MethodIdx` against the receiver class schema once at compile time.
//!
//! The tape is deliberately engine-agnostic: it references classes and
//! methods by name and carries no `Arc`s into `interp`'s runtime, so it can
//! be built (and unit-tested) entirely inside `synth`. The second half of
//! the compilation — `MethodIdx` and `Arc<ModeTable>` resolution plus the
//! dispatch loop itself — lives in `interp::compile`.

use crate::ir::{AtomicSection, Expr, Stmt, VarType};
use crate::modes::ClassTables;
use crate::pipeline::SynthOutput;
use semlock::mode::LockSiteId;
use semlock::value::Value;
use std::collections::HashMap;

/// Slot index sentinel: "no destination" (a `Call` whose result is dropped).
pub const NO_SLOT: u16 = u16::MAX;

/// One lowered op. `dst`/`src`/operand fields are frame-slot indices;
/// jump offsets are relative to the *next* op (`pc = pc + 1 + off`).
#[derive(Clone, Debug, PartialEq)]
pub enum LowOp {
    /// `slots[dst] = val`.
    Const {
        /// Destination slot.
        dst: u16,
        /// The constant.
        val: Value,
    },
    /// `slots[dst] = slots[src]`.
    Copy {
        /// Destination slot.
        dst: u16,
        /// Source slot.
        src: u16,
    },
    /// `slots[dst] = bool(slots[src] == NULL)`.
    IsNull {
        /// Destination slot.
        dst: u16,
        /// Source slot.
        src: u16,
    },
    /// `slots[dst] = bool(!as_bool(slots[src]))`.
    Not {
        /// Destination slot.
        dst: u16,
        /// Source slot.
        src: u16,
    },
    /// `slots[dst] = bool(slots[a] == slots[b])`.
    Eq {
        /// Destination slot.
        dst: u16,
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
    },
    /// `slots[dst] = bool(slots[a].0 < slots[b].0)`.
    Lt {
        /// Destination slot.
        dst: u16,
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
    },
    /// `slots[dst] = slots[a].0.wrapping_add(slots[b].0)`.
    Add {
        /// Destination slot.
        dst: u16,
        /// Left operand slot.
        a: u16,
        /// Right operand slot.
        b: u16,
    },
    /// `slots[dst] = new <classes[class]>()`.
    New {
        /// Destination slot.
        dst: u16,
        /// Index into [`Tape::classes`].
        class: u16,
    },
    /// `slots[ret] = slots[recv].<calls[call]>(arg_pool[args_start..+args_len])`
    /// (`ret == NO_SLOT` drops the result).
    Call {
        /// Index into [`Tape::calls`].
        call: u16,
        /// Result slot, or [`NO_SLOT`].
        ret: u16,
        /// Receiver pointer slot.
        recv: u16,
        /// Start of the argument slot range in [`Tape::arg_pool`].
        args_start: u32,
        /// Number of arguments.
        args_len: u16,
    },
    /// Unconditional relative jump.
    Jump {
        /// Offset relative to the next op.
        off: i32,
    },
    /// Jump if `!as_bool(slots[cond])`.
    JumpIfFalse {
        /// Condition slot.
        cond: u16,
        /// Offset relative to the next op.
        off: i32,
    },
    /// `LV(x)` / direct lock: acquire `sites[site]` on `slots[recv]`,
    /// skipping null pointers (LOCAL_SET semantics).
    Lock {
        /// Receiver pointer slot.
        recv: u16,
        /// Index into [`Tape::sites`].
        site: u16,
    },
    /// `LV2(…)`: lock `group_pool[start..+len]` entries in dynamic
    /// unique-id order (Fig. 12), skipping nulls.
    LockGroup {
        /// Start of the entry range in [`Tape::group_pool`].
        start: u32,
        /// Number of entries.
        len: u16,
    },
    /// `if (x != null) x.unlockAll()`.
    UnlockAllOf {
        /// Receiver pointer slot.
        recv: u16,
    },
    /// Epilogue `foreach (t : LOCAL_SET) t.unlockAll()`.
    UnlockAll,
}

/// A lock site with everything the admission path needs pre-resolved.
#[derive(Clone, Debug)]
pub struct SiteRef {
    /// ADT class locked at this site.
    pub class: String,
    /// Runtime site id into the class's `ModeTable` (pre-resolved from the
    /// string-keyed `ClassTables::site` map).
    pub rt_site: LockSiteId,
    /// Stable telemetry site id (see `LockSiteDecl::stable_id`).
    pub stable_id: u32,
    /// Frame slots supplying `ModeTable::select`'s key values, in slot
    /// order.
    pub key_slots: Vec<u16>,
}

/// A call target: receiver class + method name. The engine resolves the
/// `MethodIdx` against the class schema once, at compile time.
#[derive(Clone, Debug, PartialEq)]
pub struct CallRef {
    /// Static class of the receiver pointer variable.
    pub class: String,
    /// Method name.
    pub method: String,
}

/// A lowered atomic section: the flat op tape plus its constant pools.
#[derive(Clone, Debug)]
pub struct Tape {
    /// Section name.
    pub section: String,
    /// The ops.
    pub ops: Vec<LowOp>,
    /// Declared variables in slot order: slot `i` holds `vars[i]`.
    pub vars: Vec<(String, VarType)>,
    /// Total slot count including expression temporaries
    /// (`vars.len() <= n_slots`).
    pub n_slots: u16,
    /// Referenced lock sites (indexed by `LowOp::Lock::site` and
    /// [`Tape::group_pool`] entries).
    pub sites: Vec<SiteRef>,
    /// Call targets (indexed by `LowOp::Call::call`).
    pub calls: Vec<CallRef>,
    /// Classes allocated by `New` ops (indexed by `LowOp::New::class`).
    pub classes: Vec<String>,
    /// Flattened call-argument slot ranges.
    pub arg_pool: Vec<u16>,
    /// Flattened `LockGroup` entries: `(recv_slot, site_index)`.
    pub group_pool: Vec<(u16, u16)>,
}

impl Tape {
    /// Slot of a declared variable, if any.
    pub fn slot_of(&self, name: &str) -> Option<u16> {
        self.vars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u16)
    }
}

struct Lowerer<'a> {
    section: &'a AtomicSection,
    tables: &'a ClassTables,
    ops: Vec<LowOp>,
    slots: HashMap<String, u16>,
    n_vars: u16,
    /// High-water mark across all statements.
    max_slots: u16,
    /// Next free temp for the statement currently being lowered.
    temp_next: u16,
    sites: Vec<SiteRef>,
    site_index: HashMap<usize, u16>,
    calls: Vec<CallRef>,
    classes: Vec<String>,
    arg_pool: Vec<u16>,
    group_pool: Vec<(u16, u16)>,
}

impl<'a> Lowerer<'a> {
    fn slot(&self, var: &str) -> u16 {
        *self
            .slots
            .get(var)
            .unwrap_or_else(|| panic!("unbound variable {var} in section {}", self.section.name))
    }

    fn alloc_temp(&mut self) -> u16 {
        let t = self.temp_next;
        self.temp_next = t.checked_add(1).expect("slot overflow");
        if self.temp_next > self.max_slots {
            self.max_slots = self.temp_next;
        }
        t
    }

    /// Lower an expression, returning the slot holding its value. Bare
    /// variable reads return the variable's slot directly (no copy).
    fn lower_expr(&mut self, e: &Expr) -> u16 {
        if let Expr::Var(v) = e {
            return self.slot(v);
        }
        let dst = self.alloc_temp();
        self.lower_expr_into(e, dst);
        dst
    }

    /// Lower an expression directly into `dst`. Operand slots are read
    /// before `dst` is written, so `i = i + 1` lowers to a single `Add`
    /// with `dst == a`.
    fn lower_expr_into(&mut self, e: &Expr, dst: u16) {
        match e {
            Expr::Const(v) => self.ops.push(LowOp::Const { dst, val: *v }),
            Expr::Null => self.ops.push(LowOp::Const {
                dst,
                val: Value::NULL,
            }),
            Expr::Var(v) => {
                let src = self.slot(v);
                if src != dst {
                    self.ops.push(LowOp::Copy { dst, src });
                }
            }
            Expr::IsNull(x) => {
                let src = self.lower_expr(x);
                self.ops.push(LowOp::IsNull { dst, src });
            }
            Expr::Not(x) => {
                let src = self.lower_expr(x);
                self.ops.push(LowOp::Not { dst, src });
            }
            Expr::Eq(a, b) => {
                let a = self.lower_expr(a);
                let b = self.lower_expr(b);
                self.ops.push(LowOp::Eq { dst, a, b });
            }
            Expr::Lt(a, b) => {
                let a = self.lower_expr(a);
                let b = self.lower_expr(b);
                self.ops.push(LowOp::Lt { dst, a, b });
            }
            Expr::Add(a, b) => {
                let a = self.lower_expr(a);
                let b = self.lower_expr(b);
                self.ops.push(LowOp::Add { dst, a, b });
            }
        }
    }

    /// Intern a lock site, resolving its runtime id and key slots once.
    fn site_ref(&mut self, site: usize) -> u16 {
        if let Some(&i) = self.site_index.get(&site) {
            return i;
        }
        let decl = &self.section.sites[site];
        let key_slots = decl.keys.iter().map(|k| self.slot(k)).collect();
        let r = SiteRef {
            class: decl.class.clone(),
            rt_site: self.tables.site(&self.section.name, site),
            stable_id: decl.stable_id,
            key_slots,
        };
        let i = u16::try_from(self.sites.len()).expect("site overflow");
        self.sites.push(r);
        self.site_index.insert(site, i);
        i
    }

    fn lower_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            // Temporaries are scoped to one statement; reuse the range.
            self.temp_next = self.n_vars;
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign { var, expr, .. } => {
                let dst = self.slot(var);
                self.lower_expr_into(expr, dst);
            }
            Stmt::New { var, class, .. } => {
                let dst = self.slot(var);
                let ci = self
                    .classes
                    .iter()
                    .position(|c| c == class)
                    .unwrap_or_else(|| {
                        self.classes.push(class.clone());
                        self.classes.len() - 1
                    });
                self.ops.push(LowOp::New {
                    dst,
                    class: u16::try_from(ci).expect("class overflow"),
                });
            }
            Stmt::Call {
                ret,
                recv,
                method,
                args,
                ..
            } => {
                let recv_slot = self.slot(recv);
                let class = self.section.class_of(recv).to_string();
                let arg_slots: Vec<u16> = args.iter().map(|a| self.lower_expr(a)).collect();
                let args_start = u32::try_from(self.arg_pool.len()).expect("arg pool overflow");
                let args_len = u16::try_from(arg_slots.len()).expect("too many args");
                self.arg_pool.extend(arg_slots);
                let call = u16::try_from(self.calls.len()).expect("call overflow");
                self.calls.push(CallRef {
                    class,
                    method: method.clone(),
                });
                self.ops.push(LowOp::Call {
                    call,
                    ret: ret.as_deref().map_or(NO_SLOT, |r| self.slot(r)),
                    recv: recv_slot,
                    args_start,
                    args_len,
                });
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let c = self.lower_expr(cond);
                let jf_at = self.ops.len();
                self.ops.push(LowOp::JumpIfFalse { cond: c, off: 0 });
                self.lower_block(then_branch);
                if else_branch.is_empty() {
                    self.patch_to_here(jf_at);
                } else {
                    let j_at = self.ops.len();
                    self.ops.push(LowOp::Jump { off: 0 });
                    self.patch_to_here(jf_at);
                    self.lower_block(else_branch);
                    self.patch_to_here(j_at);
                }
            }
            Stmt::While { cond, body, .. } => {
                let head = self.ops.len();
                let c = self.lower_expr(cond);
                let jf_at = self.ops.len();
                self.ops.push(LowOp::JumpIfFalse { cond: c, off: 0 });
                self.lower_block(body);
                let back_at = self.ops.len();
                self.ops.push(LowOp::Jump {
                    off: rel(back_at, head),
                });
                self.patch_to_here(jf_at);
            }
            Stmt::Lv { recv, site, .. } | Stmt::LockDirect { recv, site, .. } => {
                let recv_slot = self.slot(recv);
                let site = self.site_ref(*site);
                self.ops.push(LowOp::Lock {
                    recv: recv_slot,
                    site,
                });
            }
            Stmt::LvGroup { entries, .. } => {
                let start = u32::try_from(self.group_pool.len()).expect("group pool overflow");
                let len = u16::try_from(entries.len()).expect("group overflow");
                for (v, site) in entries {
                    let recv = self.slot(v);
                    let site = self.site_ref(*site);
                    self.group_pool.push((recv, site));
                }
                self.ops.push(LowOp::LockGroup { start, len });
            }
            Stmt::UnlockAllOf { recv, .. } => {
                let recv = self.slot(recv);
                self.ops.push(LowOp::UnlockAllOf { recv });
            }
            Stmt::EpilogueUnlockAll { .. } => self.ops.push(LowOp::UnlockAll),
        }
    }

    /// Patch the jump at `at` to land on the next op to be emitted.
    fn patch_to_here(&mut self, at: usize) {
        let target = self.ops.len();
        let off = rel(at, target);
        match &mut self.ops[at] {
            LowOp::Jump { off: o } | LowOp::JumpIfFalse { off: o, .. } => *o = off,
            other => panic!("patching non-jump op {other:?}"),
        }
    }
}

/// Relative offset so that executing the jump at `at` continues at `target`.
fn rel(at: usize, target: usize) -> i32 {
    i32::try_from(target as i64 - (at as i64 + 1)).expect("jump offset overflow")
}

/// Lower one section against its program's mode tables.
pub fn lower_section(section: &AtomicSection, tables: &ClassTables) -> Tape {
    let vars: Vec<(String, VarType)> = section
        .decls
        .iter()
        .map(|(n, t)| (n.clone(), t.clone()))
        .collect();
    let n_vars = u16::try_from(vars.len()).expect("too many variables");
    let mut l = Lowerer {
        section,
        tables,
        ops: Vec::new(),
        slots: vars
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i as u16))
            .collect(),
        n_vars,
        max_slots: n_vars,
        temp_next: n_vars,
        sites: Vec::new(),
        site_index: HashMap::new(),
        calls: Vec::new(),
        classes: Vec::new(),
        arg_pool: Vec::new(),
        group_pool: Vec::new(),
    };
    l.lower_block(&section.body);
    Tape {
        section: section.name.clone(),
        ops: l.ops,
        vars,
        n_slots: l.max_slots,
        sites: l.sites,
        calls: l.calls,
        classes: l.classes,
        arg_pool: l.arg_pool,
        group_pool: l.group_pool,
    }
}

/// Lower every section of a synthesized program.
pub fn lower_program(out: &SynthOutput) -> Vec<Tape> {
    out.sections
        .iter()
        .map(|s| lower_section(s, &out.tables))
        .collect()
}

/// Structural sanity checks over a tape: jump targets in bounds, slot and
/// pool indices valid. Returns an error description for the first problem.
pub fn validate(tape: &Tape) -> Result<(), String> {
    let n = tape.ops.len() as i64;
    let slot_ok = |s: u16| (s as usize) < tape.n_slots as usize;
    for (pc, op) in tape.ops.iter().enumerate() {
        let jump_ok = |off: i32| {
            let t = pc as i64 + 1 + off as i64;
            (0..=n).contains(&t)
        };
        let bad = |what: &str| Err(format!("op {pc} ({op:?}): {what}"));
        match *op {
            LowOp::Const { dst, .. } | LowOp::New { dst, .. } => {
                if !slot_ok(dst) {
                    return bad("dst slot out of range");
                }
            }
            LowOp::Copy { dst, src } | LowOp::IsNull { dst, src } | LowOp::Not { dst, src } => {
                if !slot_ok(dst) || !slot_ok(src) {
                    return bad("slot out of range");
                }
            }
            LowOp::Eq { dst, a, b } | LowOp::Lt { dst, a, b } | LowOp::Add { dst, a, b } => {
                if !slot_ok(dst) || !slot_ok(a) || !slot_ok(b) {
                    return bad("slot out of range");
                }
            }
            LowOp::Call {
                call,
                ret,
                recv,
                args_start,
                args_len,
            } => {
                if call as usize >= tape.calls.len() {
                    return bad("call index out of range");
                }
                if ret != NO_SLOT && !slot_ok(ret) {
                    return bad("ret slot out of range");
                }
                if !slot_ok(recv) {
                    return bad("recv slot out of range");
                }
                let end = args_start as usize + args_len as usize;
                if end > tape.arg_pool.len()
                    || tape.arg_pool[args_start as usize..end]
                        .iter()
                        .any(|&s| !slot_ok(s))
                {
                    return bad("arg range out of range");
                }
            }
            LowOp::Jump { off } => {
                if !jump_ok(off) {
                    return bad("jump target out of range");
                }
            }
            LowOp::JumpIfFalse { cond, off } => {
                if !slot_ok(cond) || !jump_ok(off) {
                    return bad("jump cond/target out of range");
                }
            }
            LowOp::Lock { recv, site } => {
                if !slot_ok(recv) || site as usize >= tape.sites.len() {
                    return bad("lock slot/site out of range");
                }
            }
            LowOp::LockGroup { start, len } => {
                let end = start as usize + len as usize;
                if end > tape.group_pool.len()
                    || tape.group_pool[start as usize..end]
                        .iter()
                        .any(|&(r, s)| !slot_ok(r) || s as usize >= tape.sites.len())
                {
                    return bad("group range out of range");
                }
            }
            LowOp::UnlockAllOf { recv } => {
                if !slot_ok(recv) {
                    return bad("recv slot out of range");
                }
            }
            LowOp::UnlockAll => {}
        }
    }
    for site in &tape.sites {
        if site.key_slots.iter().any(|&s| !slot_ok(s)) {
            return Err(format!("site {site:?}: key slot out of range"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{fig1_section, fig7_section, fig9_section};
    use crate::restrictions::ClassRegistry;
    use crate::Synthesizer;
    use adts::{schema_of, spec_of};

    fn synthesize(sections: Vec<AtomicSection>) -> SynthOutput {
        let mut r = ClassRegistry::new();
        for class in ["Map", "Set", "Queue", "Multimap", "WeakMap"] {
            r.register(class, schema_of(class), spec_of(class));
        }
        Synthesizer::new(r)
            .phi(semlock::phi::Phi::fib(16))
            .synthesize(&sections)
    }

    #[test]
    fn lowers_paper_sections_and_validates() {
        let out = synthesize(vec![fig1_section(), fig7_section(), fig9_section()]);
        let tapes = lower_program(&out);
        assert_eq!(tapes.len(), out.sections.len());
        for (tape, section) in tapes.iter().zip(&out.sections) {
            validate(tape).unwrap_or_else(|e| panic!("{}: {e}", tape.section));
            assert_eq!(tape.section, section.name);
            assert_eq!(tape.vars.len(), section.decls.len());
            assert!(tape.n_slots as usize >= tape.vars.len());
            assert!(!tape.ops.is_empty());
        }
    }

    #[test]
    fn lock_sites_are_preresolved() {
        let out = synthesize(vec![fig1_section()]);
        let section = &out.sections[0];
        let tape = lower_section(section, &out.tables);
        // Every site the tape references matches the string-keyed lookup
        // the tree-walker would have done.
        let n_lock_ops = tape
            .ops
            .iter()
            .filter(|op| matches!(op, LowOp::Lock { .. } | LowOp::LockGroup { .. }))
            .count();
        assert!(n_lock_ops > 0, "synthesized section has no lock ops");
        assert!(!tape.sites.is_empty());
        for site in &tape.sites {
            assert_ne!(site.stable_id, 0, "site id not stamped");
            assert!(out.tables.contains(&site.class));
        }
    }

    #[test]
    fn while_loop_flattens_to_backward_jump() {
        let out = synthesize(vec![fig9_section()]);
        // fig9 may be rewritten behind a wrapper; lower whichever section
        // retains the loop.
        let tape = out
            .sections
            .iter()
            .map(|s| lower_section(s, &out.tables))
            .find(|t| {
                t.ops
                    .iter()
                    .any(|op| matches!(op, LowOp::Jump { off } if *off < 0))
            })
            .expect("no tape contains a backward jump");
        validate(&tape).unwrap();
    }

    #[test]
    fn assign_self_add_uses_no_copy() {
        use crate::ir::{e::*, scalar, Body};
        let section = AtomicSection::new(
            "inc",
            [scalar("i")],
            Body::new().assign("i", add(var("i"), konst(1))).build(),
        );
        let out = synthesize(vec![section]);
        let tape = lower_section(&out.sections[0], &out.tables);
        validate(&tape).unwrap();
        // i = i + 1 lowers to Const + Add (no Copy).
        assert!(tape.ops.iter().any(|op| matches!(op, LowOp::Add { .. })));
        assert!(!tape.ops.iter().any(|op| matches!(op, LowOp::Copy { .. })));
    }
}
