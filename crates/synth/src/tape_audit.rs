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

/// The lock events of one tape op (empty for non-lock ops). An
/// `AcquireBatch` contributes one acquire event per member in pool order
/// — the batch holds exactly what the member `Lock` ops it replaced
/// would hold, so it is compared member-by-member.
fn tape_events(tape: &Tape, op: &LowOp) -> Vec<String> {
    match *op {
        LowOp::Lock { recv, site } => vec![acquire_event(
            &slot_name(tape, recv),
            tape.sites[site as usize].stable_id,
        )],
        LowOp::LockGroup { start, len } => {
            let es: Vec<(String, u32)> = tape.group_pool
                [start as usize..start as usize + len as usize]
                .iter()
                .map(|&(recv, site)| (slot_name(tape, recv), tape.sites[site as usize].stable_id))
                .collect();
            vec![group_event(&es)]
        }
        LowOp::AcquireBatch { start, len } => tape.group_pool
            [start as usize..start as usize + len as usize]
            .iter()
            .map(|&(recv, site)| {
                acquire_event(&slot_name(tape, recv), tape.sites[site as usize].stable_id)
            })
            .collect(),
        LowOp::UnlockAllOf { recv } => vec![release_event(&slot_name(tape, recv))],
        LowOp::UnlockAll => vec![RELEASE_ALL_EVENT.to_string()],
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// SL006: bounded lock-event path language, generic over a graph.
// ---------------------------------------------------------------------

struct Explorer<'a> {
    succ: &'a dyn Fn(usize) -> Vec<usize>,
    event: &'a dyn Fn(usize) -> Vec<String>,
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
        let evs = (self.event)(node);
        self.events.extend(evs.iter().cloned());
        for next in (self.succ)(node) {
            self.dfs(next);
        }
        self.events.truncate(self.events.len() - evs.len());
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
    event: &dyn Fn(usize) -> Vec<String>,
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

// ---------------------------------------------------------------------
// SL006 relaxed comparison for optimized tapes.
// ---------------------------------------------------------------------

/// Normalize one event path to what the runtime actually does with it:
/// an acquire on an instance already in `LOCAL_SET` is skipped (both
/// engines dedup held receivers before admission), so repeated acquires
/// of a held receiver are dropped. Releases clear the receiver (or, for
/// the epilogue, everything). This is the *documented invariant* the
/// optimizer preserves — fusion deletes exactly the acquires this
/// normalization deletes.
fn normalize_path(path: &[String]) -> Vec<String> {
    let mut held: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for e in path {
        if let Some(rest) = e.strip_prefix("acquire ") {
            let recv = rest.split('#').next().unwrap_or(rest).to_string();
            if held.insert(recv) {
                out.push(e.clone());
            }
        } else if let Some(inner) = e.strip_prefix("group [").and_then(|s| s.strip_suffix(']')) {
            for m in inner.split(',') {
                if let Some(r) = m.split('#').next() {
                    held.insert(r.to_string());
                }
            }
            out.push(e.clone());
        } else if let Some(recv) = e.strip_prefix("release ") {
            held.remove(recv);
            out.push(e.clone());
        } else {
            // Epilogue release-all.
            held.clear();
            out.push(e.clone());
        }
    }
    out
}

fn normalize_lang(lang: &BTreeSet<Vec<String>>) -> BTreeSet<Vec<String>> {
    lang.iter().map(|p| normalize_path(p)).collect()
}

/// Does optimized path `p` refine original path `o`: `o` is a
/// subsequence of `p`, and every extra element of `p` is an acquire
/// event the original language performs somewhere (`known`). Extra
/// early acquisitions are the conservative over-approximation of the
/// paper's eager `LV` insertion — a hoisted lock may be taken on a
/// zero-trip path where the original took nothing — and are sound:
/// locks are only ever added, never removed or reordered past releases.
fn path_refines(o: &[String], p: &[String], known: &BTreeSet<String>) -> bool {
    let mut i = 0;
    for e in p {
        if i < o.len() && *e == o[i] {
            i += 1;
        } else if !(e.starts_with("acquire ") && known.contains(e)) {
            return false;
        }
    }
    i == o.len()
}

/// Relaxed SL006 acceptance for optimized tapes: normalized languages
/// equal, or mutual refinement — every optimized path refines some
/// original path and every original path is refined by some optimized
/// path (so no original behavior is lost and nothing beyond
/// conservative early acquisition is added).
fn lang_refines(ir: &BTreeSet<Vec<String>>, opt: &BTreeSet<Vec<String>>) -> bool {
    if ir == opt {
        return true;
    }
    let known: BTreeSet<String> = ir
        .iter()
        .flatten()
        .filter(|e| e.starts_with("acquire "))
        .cloned()
        .collect();
    opt.iter()
        .all(|p| ir.iter().any(|o| path_refines(o, p, &known)))
        && ir
            .iter()
            .all(|o| opt.iter().any(|p| path_refines(o, p, &known)))
}

/// How SL006 compares the tape language against the section CFG.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BisimMode {
    /// Lowered, unoptimized tape: the languages must be identical.
    Exact,
    /// Optimized tape: normalized languages must be equal or in the
    /// mutual acquisition-refinement relation (fusion and hoisting are
    /// lock-event-equivalent under the runtime's held-skip semantics).
    Relaxed,
}

/// SL006: compare the bounded lock-event path languages of the section
/// CFG and the lowered tape.
fn check_bisimulation(tape: &Tape, section: &AtomicSection, mode: BisimMode) -> Vec<Diagnostic> {
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
    let ir_ev = |n: usize| -> Vec<String> {
        stmt_events
            .get(n)
            .cloned()
            .flatten()
            .map_or_else(Vec::new, |e| vec![e])
    };
    let ir_lang = language(n_stmts + 2, entry, exit, &ir_succ, &ir_ev);

    let n_ops = tape.ops.len();
    let tp_succ = |pc: usize| tape_succ(tape, pc);
    let tp_ev = |pc: usize| tape_events(tape, &tape.ops[pc]);
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

    let (ir_cmp, tape_cmp) = match mode {
        BisimMode::Exact => {
            if ir_lang == tape_lang {
                return Vec::new();
            }
            (ir_lang, tape_lang)
        }
        BisimMode::Relaxed => {
            let ir_n = normalize_lang(&ir_lang);
            let tape_n = normalize_lang(&tape_lang);
            if lang_refines(&ir_n, &tape_n) {
                return Vec::new();
            }
            (ir_n, tape_n)
        }
    };
    let what = match mode {
        BisimMode::Exact => "lowered tape lock events diverge from the section CFG",
        BisimMode::Relaxed => {
            "optimized tape lock events are not an acquisition refinement of the section CFG"
        }
    };
    let mut d = Diagnostic::error(what.to_string())
        .with_lint(Lint::Sl006)
        .in_section(&section.name)
        .with_note(format!("required by {}", Lint::Sl006.paper_ref()));
    if let Some(p) = ir_cmp.difference(&tape_cmp).next() {
        d = d.with_note(format!("CFG-only event path: {}", render_path(p)));
    }
    if let Some(p) = tape_cmp.difference(&ir_cmp).next() {
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
        let is_acquire = matches!(
            op,
            LowOp::Lock { .. } | LowOp::LockGroup { .. } | LowOp::AcquireBatch { .. }
        );
        if is_acquire && in_state[pc] & AFTER_RELEASE != 0 {
            let evs = tape_events(tape, op);
            let what = if evs.is_empty() {
                format!("{op:?}")
            } else {
                evs.join("; ")
            };
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
    audit_tape_mode(tape, section, tables, registry, BisimMode::Exact)
}

/// Run all tape lints (SL006–SL008) over an optimized tape
/// ([`crate::tape_opt::optimize`] output). SL006 compares under the
/// relaxed acquisition-refinement relation: fusion and hoisting are
/// accepted as lock-event-equivalent, anything else still fails.
pub fn audit_optimized_tape(
    tape: &Tape,
    section: &AtomicSection,
    tables: &ClassTables,
    registry: &ClassRegistry,
) -> Vec<Diagnostic> {
    audit_tape_mode(tape, section, tables, registry, BisimMode::Relaxed)
}

fn audit_tape_mode(
    tape: &Tape,
    section: &AtomicSection,
    tables: &ClassTables,
    registry: &ClassRegistry,
    mode: BisimMode,
) -> Vec<Diagnostic> {
    if let Err(e) = crate::lower::validate(tape) {
        // Structural breakage voids the path analyses; report and stop.
        return vec![
            Diagnostic::error(format!("tape fails structural validation: {e}"))
                .with_lint(Lint::Sl006)
                .in_section(&section.name),
        ];
    }
    let mut out = check_bisimulation(tape, section, mode);
    out.extend(check_two_phase(tape));
    out.extend(check_tape_sites(tape, section, tables, registry));
    out
}

/// Lower every section of a synthesized program and run the tape lints —
/// over the raw lowered tape (exact bisimulation) *and* over its
/// optimized form (refinement bisimulation), so `semlockc check` audits
/// exactly what the compiled engine will execute.
pub fn audit_tapes(out: &SynthOutput) -> Vec<Diagnostic> {
    out.sections
        .iter()
        .flat_map(|s| {
            let tape = lower_section(s, &out.tables);
            let mut diags = audit_tape(&tape, s, &out.tables, &out.registry);
            let (opt, _) = crate::tape_opt::optimize(&tape);
            diags.extend(audit_optimized_tape(&opt, s, &out.tables, &out.registry));
            diags
        })
        .collect()
}
