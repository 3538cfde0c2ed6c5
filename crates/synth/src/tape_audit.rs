//! Tape-level audit lints (SL006–SL008): extend the static OS2PL audit
//! past lowering, so the compiled op tape is held to the same invariants
//! the section-level pass ([`crate::audit`]) verified on the IR.
//!
//! The section audit proves the *synthesized IR* enforces OS2PL; the
//! execution engine, however, runs the *lowered tape* ([`crate::lower`]).
//! Any divergence introduced by lowering — a lock op skipped by a
//! mis-patched jump, a release reordered before an acquisition, a
//! `SiteRef` resolved against the wrong mode-table site — would silently
//! void the IR-level proof. Three lints close that gap:
//!
//! * **SL006** — *lock-event bisimulation*: the set of lock-event
//!   sequences along bounded paths of the tape's op graph (relative
//!   jumps included) must equal the set along bounded paths of the
//!   section CFG. Events are acquisitions (receiver + stable site id),
//!   ordered group acquisitions, per-variable releases, and the
//!   epilogue release-all. Paths traverse each node at most twice, so
//!   every loop contributes its zero- and one-iteration behaviors on
//!   both sides.
//! * **SL007** — *two-phase on the tape*: a forward dataflow over the op
//!   graph tracking "a release has happened on some path here"; any
//!   `Lock`/`LockGroup` op reachable in the released state is an error
//!   (S2PL rule 2 restated over the lowered form).
//! * **SL008** — *site-resolution consistency*: every `SiteRef` the
//!   tape carries must agree with the section's `LockSiteDecl` it
//!   claims to implement — stable id stamped and declared, class and
//!   runtime site id matching `ClassTables`, key slots naming exactly
//!   the declared key variables, and the class mode table registering
//!   the declared symbolic set at that runtime site. The same check is
//!   exposed over [`ResolvedSiteFact`]s so `interp::compile` can report
//!   the sites it actually resolved for auditing.
//!
//! All three are wired into [`crate::pipeline::SynthOutput::audit`], so
//! `semlockc check` surfaces them alongside SL001–SL005.

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, Lint};
use crate::ir::{AtomicSection, Stmt};
use crate::lower::{lower_section, LowOp, Tape};
use crate::modes::ClassTables;
use crate::pipeline::SynthOutput;
use crate::restrictions::ClassRegistry;
use semlock::mode::{LockSiteId, ModeTable};
use semlock::symbolic::SymbolicSet;
use std::collections::BTreeSet;
use std::sync::Arc;

/// SL006 exploration budget: maximum distinct lock-event paths recorded
/// per side before the bisimulation degrades to a warning.
pub const MAX_PATHS: usize = 4096;

/// SL006 exploration budget: maximum DFS steps per side.
pub const MAX_STEPS: usize = 262_144;

/// How many times one node may appear on a single path: 2, so every loop
/// contributes its zero- and one-iteration event sequences.
const VISIT_CAP: u8 = 2;

// ---------------------------------------------------------------------
// Lock events.
// ---------------------------------------------------------------------

/// Render one lock event. Both sides use the same renderings, so the
/// bisimulation compares plain strings.
fn acquire_event(recv: &str, stable_id: u32) -> String {
    format!("acquire {recv}#{stable_id:08x}")
}

fn group_event(entries: &[(String, u32)]) -> String {
    let inner: Vec<String> = entries
        .iter()
        .map(|(v, id)| format!("{v}#{id:08x}"))
        .collect();
    format!("group [{}]", inner.join(","))
}

fn release_event(recv: &str) -> String {
    format!("release {recv}")
}

const RELEASE_ALL_EVENT: &str = "release-all";

/// The lock event of one IR statement, if any.
fn ir_event(section: &AtomicSection, s: &Stmt) -> Option<String> {
    match s {
        Stmt::Lv { recv, site, .. } | Stmt::LockDirect { recv, site, .. } => {
            Some(acquire_event(recv, section.sites[*site].stable_id))
        }
        Stmt::LvGroup { entries, .. } => {
            let es: Vec<(String, u32)> = entries
                .iter()
                .map(|(v, site)| (v.clone(), section.sites[*site].stable_id))
                .collect();
            Some(group_event(&es))
        }
        Stmt::UnlockAllOf { recv, .. } => Some(release_event(recv)),
        Stmt::EpilogueUnlockAll { .. } => Some(RELEASE_ALL_EVENT.to_string()),
        _ => None,
    }
}

/// Name of a frame slot: the declared variable, or `slot<N>` for
/// temporaries (which never hold lock receivers in well-formed tapes).
fn slot_name(tape: &Tape, slot: u16) -> String {
    tape.vars
        .get(slot as usize)
        .map(|(n, _)| n.clone())
        .unwrap_or_else(|| format!("slot{slot}"))
}

/// The lock event of one tape op, if any.
fn tape_event(tape: &Tape, op: &LowOp) -> Option<String> {
    match *op {
        LowOp::Lock { recv, site } => Some(acquire_event(
            &slot_name(tape, recv),
            tape.sites[site as usize].stable_id,
        )),
        LowOp::LockGroup { start, len } => {
            let es: Vec<(String, u32)> = tape.group_pool
                [start as usize..start as usize + len as usize]
                .iter()
                .map(|&(recv, site)| (slot_name(tape, recv), tape.sites[site as usize].stable_id))
                .collect();
            Some(group_event(&es))
        }
        LowOp::UnlockAllOf { recv } => Some(release_event(&slot_name(tape, recv))),
        LowOp::UnlockAll => Some(RELEASE_ALL_EVENT.to_string()),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// SL006: bounded lock-event path language, generic over a graph.
// ---------------------------------------------------------------------

struct Explorer<'a> {
    succ: &'a dyn Fn(usize) -> Vec<usize>,
    event: &'a dyn Fn(usize) -> Option<String>,
    exit: usize,
    visits: Vec<u8>,
    events: Vec<String>,
    paths: BTreeSet<Vec<String>>,
    steps: usize,
    exhausted: bool,
}

impl Explorer<'_> {
    fn dfs(&mut self, node: usize) {
        if self.exhausted {
            return;
        }
        self.steps += 1;
        if self.steps > MAX_STEPS || self.paths.len() >= MAX_PATHS {
            self.exhausted = true;
            return;
        }
        if node == self.exit {
            self.paths.insert(self.events.clone());
            return;
        }
        if self.visits[node] >= VISIT_CAP {
            return;
        }
        self.visits[node] += 1;
        let depth = self.events.len();
        self.events.extend((self.event)(node));
        for next in (self.succ)(node) {
            self.dfs(next);
        }
        self.events.truncate(depth);
        self.visits[node] -= 1;
    }
}

/// The bounded lock-event path language of a graph, or `None` if the
/// exploration budget was exhausted.
fn language(
    n_nodes: usize,
    start: usize,
    exit: usize,
    succ: &dyn Fn(usize) -> Vec<usize>,
    event: &dyn Fn(usize) -> Option<String>,
) -> Option<BTreeSet<Vec<String>>> {
    let mut ex = Explorer {
        succ,
        event,
        exit,
        visits: vec![0; n_nodes],
        events: Vec::new(),
        paths: BTreeSet::new(),
        steps: 0,
        exhausted: false,
    };
    ex.dfs(start);
    if ex.exhausted {
        None
    } else {
        Some(ex.paths)
    }
}

/// Successors of a tape op (jump offsets are relative to the next op).
/// `validate` has already bounds-checked every target.
fn tape_succ(tape: &Tape, pc: usize) -> Vec<usize> {
    let target = |off: i32| (pc as i64 + 1 + off as i64) as usize;
    match tape.ops[pc] {
        LowOp::Jump { off } => vec![target(off)],
        LowOp::JumpIfFalse { off, .. } => {
            let (fall, taken) = (pc + 1, target(off));
            if fall == taken {
                vec![fall]
            } else {
                vec![fall, taken]
            }
        }
        _ => vec![pc + 1],
    }
}

fn render_path(p: &[String]) -> String {
    if p.is_empty() {
        "(no lock events)".to_string()
    } else {
        p.join("; ")
    }
}

/// SL006: compare the bounded lock-event path languages of the section
/// CFG and the lowered tape.
fn check_bisimulation(tape: &Tape, section: &AtomicSection) -> Vec<Diagnostic> {
    let cfg = Cfg::build(section);

    // Event per CFG statement node, precomputed (section bodies are
    // trees; index statements by id).
    let n_stmts = cfg.stmt_count() as usize;
    let mut stmt_events: Vec<Option<String>> = vec![None; n_stmts];
    section.for_each_stmt(|s| {
        stmt_events[s.id() as usize] = ir_event(section, s);
    });

    let entry = cfg.entry() as usize;
    let exit = cfg.exit() as usize;
    let ir_succ =
        |n: usize| -> Vec<usize> { cfg.succ(n as u32).iter().map(|&x| x as usize).collect() };
    let ir_ev = |n: usize| -> Option<String> { stmt_events.get(n).cloned().flatten() };
    let ir_lang = language(n_stmts + 2, entry, exit, &ir_succ, &ir_ev);

    let n_ops = tape.ops.len();
    let tp_succ = |pc: usize| tape_succ(tape, pc);
    let tp_ev = |pc: usize| tape_event(tape, &tape.ops[pc]);
    let tape_lang = language(n_ops + 1, 0, n_ops, &tp_succ, &tp_ev);

    let (ir_lang, tape_lang) = match (ir_lang, tape_lang) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return vec![Diagnostic::warning(format!(
                "lock-event bisimulation skipped: exploration budget exceeded \
                 ({MAX_PATHS} paths / {MAX_STEPS} steps)"
            ))
            .with_lint(Lint::Sl006)
            .in_section(&section.name)];
        }
    };

    if ir_lang == tape_lang {
        return Vec::new();
    }
    let mut d = Diagnostic::error("lowered tape lock events diverge from the section CFG")
        .with_lint(Lint::Sl006)
        .in_section(&section.name)
        .with_note(format!("required by {}", Lint::Sl006.paper_ref()));
    if let Some(p) = ir_lang.difference(&tape_lang).next() {
        d = d.with_note(format!("CFG-only event path: {}", render_path(p)));
    }
    if let Some(p) = tape_lang.difference(&ir_lang).next() {
        d = d.with_note(format!("tape-only event path: {}", render_path(p)));
    }
    vec![d]
}

// ---------------------------------------------------------------------
// SL007: released-state dataflow over the op graph.
// ---------------------------------------------------------------------

/// Reachability bit masks for the two-phase dataflow.
const BEFORE_RELEASE: u8 = 0b01;
const AFTER_RELEASE: u8 = 0b10;

/// SL007: flag every acquisition op reachable (along any path, jumps
/// included) after a release op.
fn check_two_phase(tape: &Tape) -> Vec<Diagnostic> {
    let n = tape.ops.len();
    if n == 0 {
        return Vec::new();
    }
    // in_state[pc]: union over incoming paths of "has a release happened".
    let mut in_state: Vec<u8> = vec![0; n + 1];
    in_state[0] = BEFORE_RELEASE;
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        if pc == n {
            continue;
        }
        let out = match tape.ops[pc] {
            LowOp::UnlockAllOf { .. } | LowOp::UnlockAll => AFTER_RELEASE,
            _ => in_state[pc],
        };
        for next in tape_succ(tape, pc) {
            if in_state[next] | out != in_state[next] {
                in_state[next] |= out;
                work.push(next);
            }
        }
    }
    let mut out = Vec::new();
    for (pc, op) in tape.ops.iter().enumerate() {
        let is_acquire = matches!(op, LowOp::Lock { .. } | LowOp::LockGroup { .. });
        if is_acquire && in_state[pc] & AFTER_RELEASE != 0 {
            let what = tape_event(tape, op).unwrap_or_else(|| format!("{op:?}"));
            out.push(
                Diagnostic::error(format!(
                    "tape op {pc} ({what}) acquires after a release point (two-phase violation)"
                ))
                .with_lint(Lint::Sl007)
                .in_section(&tape.section)
                .with_note(format!("required by {}", Lint::Sl007.paper_ref())),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// SL008: site-resolution consistency.
// ---------------------------------------------------------------------

/// The symbolic set a site declaration registers with the mode-table
/// builder (`None` means the generic all-operations set of §3).
fn declared_symset(
    decl: &crate::ir::LockSiteDecl,
    registry: &ClassRegistry,
) -> Result<SymbolicSet, crate::diag::SynthError> {
    match &decl.symset {
        Some(s) => Ok(s.clone()),
        None => Ok(SymbolicSet::all_operations(
            registry.try_schema(&decl.class)?,
        )),
    }
}

/// Check one resolved site (tape `SiteRef` or interp fact) against the
/// section declaration it claims to implement.
#[allow(clippy::too_many_arguments)]
fn check_site(
    origin: &str,
    section: &AtomicSection,
    tables: &ClassTables,
    registry: &ClassRegistry,
    class: &str,
    rt_site: LockSiteId,
    stable_id: u32,
    keys: Option<&[String]>,
    key_count: usize,
    table: Option<&Arc<ModeTable>>,
    out: &mut Vec<Diagnostic>,
) {
    let fail = |msg: String| {
        Diagnostic::error(msg)
            .with_lint(Lint::Sl008)
            .in_section(&section.name)
            .with_note(format!("required by {}", Lint::Sl008.paper_ref()))
    };
    if stable_id == 0 {
        out.push(fail(format!(
            "{origin}: site carries an unstamped stable id"
        )));
        return;
    }
    let Some(ir_idx) = section.sites.iter().position(|d| d.stable_id == stable_id) else {
        out.push(fail(format!(
            "{origin}: stable id {stable_id:08x} matches no declared lock site"
        )));
        return;
    };
    let decl = &section.sites[ir_idx];
    if decl.class != class {
        out.push(fail(format!(
            "{origin}: resolved class {class} but site {ir_idx} declares {}",
            decl.class
        )));
    }
    match tables.try_site(&section.name, ir_idx) {
        Ok(expect) if expect == rt_site => {}
        Ok(expect) => out.push(fail(format!(
            "{origin}: runtime site id {} but ClassTables maps site {ir_idx} to {}",
            rt_site.0, expect.0
        ))),
        Err(e) => out.push(fail(format!("{origin}: {e}"))),
    }
    if key_count != decl.keys.len() {
        out.push(fail(format!(
            "{origin}: {} key slots but site {ir_idx} declares {} key variables",
            key_count,
            decl.keys.len()
        )));
    } else if let Some(keys) = keys {
        for (k, (have, want)) in keys.iter().zip(&decl.keys).enumerate() {
            if have != want {
                out.push(fail(format!(
                    "{origin}: key slot {k} holds {have} but site {ir_idx} declares {want}"
                )));
            }
        }
    }
    // The mode table registered for the class must carry the declared
    // symbolic set at the resolved runtime site.
    let table = match table {
        Some(t) => t.clone(),
        None => match tables.try_table(&decl.class) {
            Ok(t) => t.clone(),
            Err(e) => {
                out.push(fail(format!("{origin}: {e}")));
                return;
            }
        },
    };
    if rt_site.0 >= table.site_count() {
        out.push(fail(format!(
            "{origin}: runtime site id {} out of range for the {} mode table ({} sites)",
            rt_site.0,
            decl.class,
            table.site_count()
        )));
        return;
    }
    let expected = match declared_symset(decl, registry) {
        Ok(s) => s,
        Err(e) => {
            out.push(fail(format!("{origin}: {e}")));
            return;
        }
    };
    if *table.site_symset(rt_site) != expected {
        out.push(fail(format!(
            "{origin}: mode table registers a different symbolic set at runtime site {} \
             than site {ir_idx} declares",
            rt_site.0
        )));
    }
}

/// SL008 over a lowered tape's `SiteRef`s.
fn check_tape_sites(
    tape: &Tape,
    section: &AtomicSection,
    tables: &ClassTables,
    registry: &ClassRegistry,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, s) in tape.sites.iter().enumerate() {
        let keys: Vec<String> = s.key_slots.iter().map(|&k| slot_name(tape, k)).collect();
        check_site(
            &format!("tape SiteRef {i}"),
            section,
            tables,
            registry,
            &s.class,
            s.rt_site,
            s.stable_id,
            Some(&keys),
            keys.len(),
            None,
            &mut out,
        );
    }
    out
}

/// A site as actually resolved by a downstream compiler (`interp::compile`
/// reports one per `SiteRef` it turned into an `Arc<ModeTable>` +
/// [`LockSiteId`] pair), so SL008 can audit what will really run.
#[derive(Clone, Debug)]
pub struct ResolvedSiteFact {
    /// Section the site belongs to.
    pub section: String,
    /// Class whose mode table the compiler bound.
    pub class: String,
    /// Runtime site id the admission path will pass to `ModeTable::select`.
    pub rt_site: LockSiteId,
    /// Stable telemetry id carried through from the declaration.
    pub stable_id: u32,
    /// Number of key slots the compiler will read at lock time.
    pub key_count: usize,
    /// The mode table the compiler actually bound.
    pub table: Arc<ModeTable>,
}

/// SL008 over compiler-reported facts: every resolved site must be
/// consistent with its section's declaration and registered mode table.
pub fn check_resolved_sites(facts: &[ResolvedSiteFact], out: &SynthOutput) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, f) in facts.iter().enumerate() {
        let origin = format!("resolved site {i}");
        let Some(section) = out.sections.iter().find(|s| s.name == f.section) else {
            diags.push(
                Diagnostic::error(format!(
                    "{origin}: section {} is not part of the synthesized program",
                    f.section
                ))
                .with_lint(Lint::Sl008),
            );
            continue;
        };
        check_site(
            &origin,
            section,
            &out.tables,
            &out.registry,
            &f.class,
            f.rt_site,
            f.stable_id,
            None,
            f.key_count,
            Some(&f.table),
            &mut diags,
        );
    }
    diags
}

// ---------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------

/// Run all tape lints (SL006–SL008) over one lowered tape.
pub fn audit_tape(
    tape: &Tape,
    section: &AtomicSection,
    tables: &ClassTables,
    registry: &ClassRegistry,
) -> Vec<Diagnostic> {
    if let Err(e) = crate::lower::validate(tape) {
        // Structural breakage voids the path analyses; report and stop.
        return vec![
            Diagnostic::error(format!("tape fails structural validation: {e}"))
                .with_lint(Lint::Sl006)
                .in_section(&section.name),
        ];
    }
    let mut out = check_bisimulation(tape, section);
    out.extend(check_two_phase(tape));
    out.extend(check_tape_sites(tape, section, tables, registry));
    out
}

/// Lower every section of a synthesized program and run the tape lints
/// over the lowered tape — the one tape `interp::compile` executes.
pub fn audit_tapes(out: &SynthOutput) -> Vec<Diagnostic> {
    out.sections
        .iter()
        .flat_map(|s| {
            let tape = lower_section(s, &out.tables);
            audit_tape(&tape, s, &out.tables, &out.registry)
        })
        .collect()
}
