//! Integration tests of the static OS2PL audit pass (`synth::audit`).
//!
//! Two directions:
//!
//! * **clean** — every pipeline output (paper figures, the shipped `.sl`
//!   example programs, randomly generated sections) audits clean in every
//!   configuration (optimized, `--no-opt`, `--no-refine`);
//! * **mutation goldens** — hand-broken variants of the Fig. 1 output
//!   each trigger exactly the lint that guards the violated invariant.

use proptest::prelude::*;
use semlock::phi::Phi;
use semlock::value::Value;
use synth::audit::audit_program;
use synth::diag::Lint;
use synth::ir::{AtomicSection, Body, Expr, Stmt, VarType};
use synth::lower::LowOp;
use synth::{ClassRegistry, SynthOutput, Synthesizer};

fn registry() -> ClassRegistry {
    let mut r = ClassRegistry::new();
    for class in ["Map", "Set", "Queue", "Multimap", "WeakMap"] {
        r.register(class, adts::schema_of(class), adts::spec_of(class));
    }
    r
}

fn configs() -> [Synthesizer; 3] {
    [
        Synthesizer::new(registry()).phi(Phi::modulo(4)),
        Synthesizer::new(registry())
            .phi(Phi::modulo(4))
            .without_optimizations(),
        Synthesizer::new(registry())
            .phi(Phi::modulo(4))
            .without_refinement(),
    ]
}

// ---------------------------------------------------------------- clean

#[test]
fn paper_figures_audit_clean_in_all_configs() {
    use synth::ir::{fig1_section, fig7_section, fig9_section};
    for synth in configs() {
        for section in [fig1_section(), fig7_section(), fig9_section()] {
            let name = section.name.clone();
            let (_, report) = synth.synthesize_and_audit(&[section]);
            assert!(
                report.is_clean(),
                "{name} must audit clean:\n{}",
                report.render_text()
            );
        }
    }
}

/// The shipped `examples/programs/*.sl`, parsed: `(path, sections)`.
fn example_programs() -> Vec<(String, Vec<AtomicSection>)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut programs = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/programs exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("sl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let sections = synth::parse::parse_program(&src)
            .unwrap_or_else(|e| panic!("{} parses: {e}", path.display()));
        programs.push((path.display().to_string(), sections));
    }
    assert!(programs.len() >= 3, "expected the shipped example programs");
    programs
}

#[test]
fn example_programs_audit_clean_in_all_configs() {
    for (path, sections) in example_programs() {
        for synth in configs() {
            let (_, report) = synth.synthesize_and_audit(&sections);
            assert!(
                report.is_clean(),
                "{path} must audit clean:\n{}",
                report.render_text()
            );
        }
    }
}

#[test]
fn multi_section_program_audits_clean() {
    use synth::ir::{fig1_section, fig7_section, fig9_section};
    for synth in configs() {
        let (_, report) =
            synth.synthesize_and_audit(&[fig1_section(), fig7_section(), fig9_section()]);
        assert!(
            report.is_clean(),
            "combined program must audit clean:\n{}",
            report.render_text()
        );
    }
}

// ------------------------------------------------------ mutation goldens

fn fig1_output() -> SynthOutput {
    Synthesizer::new(registry())
        .phi(Phi::modulo(4))
        .synthesize(&[synth::ir::fig1_section()])
}

fn audit_mutated(out: &SynthOutput, section: AtomicSection) -> synth::audit::AuditReport {
    audit_program(
        std::slice::from_ref(&section),
        &out.tables,
        &out.registry,
        &out.class_order,
    )
}

/// Top-level position of the first statement matching the predicate.
fn position(body: &[Stmt], pred: impl Fn(&Stmt) -> bool) -> usize {
    body.iter().position(pred).expect("statement present")
}

fn is_lock_direct_of(s: &Stmt, var: &str) -> bool {
    matches!(s, Stmt::LockDirect { recv, .. } if recv == var)
}

#[test]
fn deleting_a_lock_site_is_a_semantic_race() {
    // Remove `set.lock(..)` from the Fig. 1 output: the `set.add` calls
    // are no longer dominated by any covering lock site → SL001.
    let out = fig1_output();
    let mut section = out.sections[0].clone();
    let pos = position(&section.body, |s| is_lock_direct_of(s, "set"));
    section.body.remove(pos);
    section.renumber();
    let report = audit_mutated(&out, section);
    assert!(!report.is_clean());
    assert!(report.has_lint(Lint::Sl001), "{}", report.render_text());
    let races: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == Some(Lint::Sl001))
        .collect();
    assert!(
        races.iter().all(|d| d.message.contains("set.add")),
        "{}",
        report.render_text()
    );
}

#[test]
fn reordering_acquisitions_violates_the_topological_order() {
    // Swap which instance the first and second lock statements acquire:
    // Set is then locked before Map, and the Map acquisition happens while
    // a Set lock is held — against ≤ts (Map < Set) → SL003.
    let out = fig1_output();
    let mut section = out.sections[0].clone();
    let map_pos = position(&section.body, |s| is_lock_direct_of(s, "map"));
    let set_pos = position(&section.body, |s| is_lock_direct_of(s, "set"));
    let Stmt::LockDirect {
        recv: r1, site: s1, ..
    } = section.body[map_pos].clone()
    else {
        panic!()
    };
    let Stmt::LockDirect {
        recv: r2, site: s2, ..
    } = section.body[set_pos].clone()
    else {
        panic!()
    };
    if let Stmt::LockDirect { recv, site, .. } = &mut section.body[map_pos] {
        *recv = r2;
        *site = s2;
    }
    if let Stmt::LockDirect { recv, site, .. } = &mut section.body[set_pos] {
        *recv = r1;
        *site = s1;
    }
    section.renumber();
    let report = audit_mutated(&out, section);
    assert!(!report.is_clean());
    assert!(report.has_lint(Lint::Sl003), "{}", report.render_text());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Some(Lint::Sl003) && d.message.contains("topological")),
        "{}",
        report.render_text()
    );
}

#[test]
fn releasing_before_a_lock_site_breaks_two_phase() {
    // Move `map.unlockAll()` from the epilogue position to the top of the
    // section: every later acquisition is reachable after a release point
    // → SL002.
    let out = fig1_output();
    let mut section = out.sections[0].clone();
    let pos = position(
        &section.body,
        |s| matches!(s, Stmt::UnlockAllOf { recv, .. } if recv == "map"),
    );
    let unlock = section.body.remove(pos);
    section.body.insert(0, unlock);
    section.renumber();
    let report = audit_mutated(&out, section);
    assert!(!report.is_clean());
    assert!(report.has_lint(Lint::Sl002), "{}", report.render_text());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Some(Lint::Sl002) && d.message.contains("release point")),
        "{}",
        report.render_text()
    );
}

#[test]
fn altering_a_site_symset_without_rebuilding_tables_is_unsound() {
    // Widen the map site's declared symbolic set to lock(+) while the mode
    // table still holds the refined set: the registered modes no longer
    // subsume the operations the IR declares for the site → SL005.
    let out = fig1_output();
    let mut section = out.sections[0].clone();
    let map_pos = position(&section.body, |s| is_lock_direct_of(s, "map"));
    let Stmt::LockDirect { site, .. } = section.body[map_pos] else {
        panic!()
    };
    section.sites[site].symset = None;
    let report = audit_mutated(&out, section);
    assert!(!report.is_clean());
    assert!(report.has_lint(Lint::Sl005), "{}", report.render_text());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.lint == Some(Lint::Sl005) && d.message.contains("different")),
        "{}",
        report.render_text()
    );
}

#[test]
fn uninstrumented_input_fails_wholesale() {
    // The raw (pre-synthesis) Fig. 1 section has no locks at all: every
    // ADT call is a race.
    let out = fig1_output();
    let raw = synth::ir::fig1_section();
    let report = audit_mutated(&out, raw);
    assert!(!report.is_clean());
    assert!(report.has_lint(Lint::Sl001));
    assert!(!report.has_lint(Lint::Sl002));
    assert!(!report.has_lint(Lint::Sl003));
}

// ------------------------------------------------- tape mutation goldens
//
// The SL006–SL008 lints guard the *lowered* form: hand-broken tapes must
// trigger exactly the lint whose invariant the mutation violates, while
// the pristine lowering of the same section stays clean.

fn fig1_tape(out: &SynthOutput) -> synth::lower::Tape {
    synth::lower::lower_section(&out.sections[0], &out.tables)
}

fn tape_lints(out: &SynthOutput, tape: &synth::lower::Tape) -> Vec<synth::diag::Diagnostic> {
    synth::tape_audit::audit_tape(tape, &out.sections[0], &out.tables, &out.registry)
}

fn has_lint(diags: &[synth::diag::Diagnostic], lint: Lint) -> bool {
    diags.iter().any(|d| d.lint == Some(lint))
}

#[test]
fn pristine_lowering_passes_the_tape_lints() {
    let out = fig1_output();
    let tape = fig1_tape(&out);
    let diags = tape_lints(&out, &tape);
    assert!(
        diags.is_empty(),
        "pristine tape must pass SL006–SL008: {diags:#?}"
    );
}

#[test]
fn reordered_release_on_the_tape_is_flagged() {
    // Swap the first acquisition with the last release (in place, so jump
    // offsets stay valid): the release now dominates the remaining Lock
    // ops → SL007, and the event order diverges from the CFG → SL006.
    let out = fig1_output();
    let mut tape = fig1_tape(&out);
    let lock = tape
        .ops
        .iter()
        .position(|op| matches!(op, LowOp::Lock { .. }))
        .expect("fig1 tape has a Lock op");
    let unlock = tape
        .ops
        .iter()
        .rposition(|op| matches!(op, LowOp::UnlockAllOf { .. }))
        .expect("fig1 tape has an UnlockAllOf op");
    assert!(lock < unlock);
    tape.ops.swap(lock, unlock);
    let diags = tape_lints(&out, &tape);
    assert!(has_lint(&diags, Lint::Sl007), "{diags:#?}");
    assert!(
        diags
            .iter()
            .any(|d| d.lint == Some(Lint::Sl007)
                && d.message.contains("acquires after a release point")),
        "{diags:#?}"
    );
    assert!(has_lint(&diags, Lint::Sl006), "{diags:#?}");
}

#[test]
fn jump_skipped_acquisition_on_the_tape_is_flagged() {
    // Patch the first acquisition op into a jump that skips it: the tape
    // silently drops a lock event the section CFG requires on every path
    // → SL006 (with the missing acquisition named in the notes).
    let out = fig1_output();
    let mut tape = fig1_tape(&out);
    let lock = tape
        .ops
        .iter()
        .position(|op| matches!(op, LowOp::Lock { .. }))
        .expect("fig1 tape has a Lock op");
    tape.ops[lock] = LowOp::Jump { off: 0 };
    let diags = tape_lints(&out, &tape);
    assert!(has_lint(&diags, Lint::Sl006), "{diags:#?}");
    let d = diags.iter().find(|d| d.lint == Some(Lint::Sl006)).unwrap();
    assert!(
        d.notes.iter().any(|n| n.contains("CFG-only event path")),
        "{diags:#?}"
    );
}

#[test]
fn mismatched_site_resolution_on_the_tape_is_flagged() {
    // Re-point a SiteRef at a different runtime site id than ClassTables
    // maps the declaration to: the admission path would select modes from
    // the wrong registered symbolic set → SL008.
    let out = fig1_output();
    let mut tape = fig1_tape(&out);
    assert!(!tape.sites.is_empty());
    tape.sites[0].rt_site = semlock::mode::LockSiteId(tape.sites[0].rt_site.0 + 1);
    let diags = tape_lints(&out, &tape);
    assert!(has_lint(&diags, Lint::Sl008), "{diags:#?}");

    // Dropping a key slot is a distinct SL008 failure (key arity).
    let mut tape = fig1_tape(&out);
    let keyed = tape
        .sites
        .iter()
        .position(|s| !s.key_slots.is_empty())
        .expect("fig1 has a refined keyed site");
    tape.sites[keyed].key_slots.clear();
    let diags = tape_lints(&out, &tape);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == Some(Lint::Sl008) && d.message.contains("key")),
        "{diags:#?}"
    );
}

#[test]
fn tape_lints_surface_through_synth_output_audit() {
    // `SynthOutput::audit` (and therefore `semlockc check`) runs the tape
    // lints automatically: a program whose IR audits clean also has its
    // lowering checked. The clean direction is covered by the paper-figure
    // and random-section tests above; pin the catalog here.
    let out = fig1_output();
    let report = out.audit();
    assert!(report.is_clean(), "{}", report.render_text());
    for lint in [Lint::Sl006, Lint::Sl007, Lint::Sl008] {
        assert!(!report.has_lint(lint));
    }
}

#[test]
fn compiled_sections_resolve_sites_consistently() {
    // SL008 over the compiler's own facts: the mode table + runtime site
    // id pairs `interp::compile` binds must match the synthesized program
    // exactly (Task: every `SiteRef` resolved by the engine carries a
    // mode table consistent with the section's registered symbolic set).
    use std::sync::Arc;
    let out = Synthesizer::new(registry())
        .phi(Phi::modulo(4))
        .synthesize(&[
            synth::ir::fig1_section(),
            synth::ir::fig7_section(),
            synth::ir::fig9_section(),
        ]);
    let env = interp::Env::new(Arc::new(out));
    let mut n_sites = 0;
    for (_, compiled) in interp::compile::compile_program(&env) {
        let facts = compiled.site_facts();
        n_sites += facts.len();
        let diags = synth::tape_audit::check_resolved_sites(&facts, &env.program);
        assert!(diags.is_empty(), "{}: {diags:#?}", compiled.name());
    }
    assert!(n_sites > 0, "compiled program resolved no lock sites");

    // And a corrupted fact is caught.
    let compiled = interp::compile::compile_program(&env);
    let mut facts = compiled
        .iter()
        .map(|(_, c)| c.site_facts())
        .find(|f| !f.is_empty())
        .expect("some section resolves sites");
    facts[0].stable_id ^= 1;
    let diags = synth::tape_audit::check_resolved_sites(&facts, &env.program);
    assert!(
        diags.iter().any(|d| d.lint == Some(Lint::Sl008)),
        "{diags:#?}"
    );
}

#[test]
fn what_runs_is_what_was_audited() {
    // SL006–SL008 audit `lower_section`'s tape. `interp::compile` must
    // execute that tape and no other: for every program the repo ships —
    // the `.sl` examples and every `workloads` section builder, under the
    // default synthesizer the engines and the benchmark use — the compiled
    // section has the lowered tape's op count, the sites it resolved pass
    // SL008, and the program audits clean.
    use std::sync::Arc;
    use workloads::{interp_chaos, server, synthesis};
    let mut programs: Vec<(String, ClassRegistry, Vec<AtomicSection>)> = example_programs()
        .into_iter()
        .map(|(path, sections)| (path, registry(), sections))
        .collect();
    for (name, sections) in [
        ("cia", vec![synthesis::cia_section()]),
        ("graph", synthesis::graph_sections()),
        ("intruder", synthesis::intruder_sections()),
        ("chaos counter", vec![interp_chaos::counter_section()]),
        (
            "server",
            vec![
                server::transfer_section(),
                server::balance_section(),
                server::scan_mutate_section(),
            ],
        ),
    ] {
        programs.push((name.to_string(), synthesis::registry(), sections));
    }
    for (name, registry, sections) in programs {
        let (out, report) = Synthesizer::new(registry)
            .phi(Phi::fib(64))
            .synthesize_and_audit(&sections);
        assert!(report.is_clean(), "{name}:\n{}", report.render_text());
        let env = interp::Env::new(Arc::new(out));
        let compiled = interp::compile::compile_program(&env);
        assert_eq!(compiled.len(), env.program.sections.len(), "{name}");
        for ((section_name, cs), section) in compiled.iter().zip(&env.program.sections) {
            assert_eq!(section_name, &section.name, "{name}");
            let tape = synth::lower::lower_section(section, &env.program.tables);
            assert_eq!(
                cs.op_count(),
                tape.ops.len(),
                "{name}/{section_name}: the engine runs a tape the audit did not see"
            );
            let diags = synth::tape_audit::check_resolved_sites(&cs.site_facts(), &env.program);
            assert!(diags.is_empty(), "{name}/{section_name}: {diags:#?}");
        }
    }
}

// ------------------------------------------------------ random programs

/// Mirror of the `tests/properties.rs` generator: calls and branches over
/// two Maps and a Set (all parameters), scalar keys `k0..k2`.
#[derive(Debug, Clone)]
enum GenStmt {
    Call {
        recv: u8,
        method: u8,
        key: u8,
        ret: bool,
    },
    If {
        key: u8,
        then_branch: Vec<GenStmt>,
        else_branch: Vec<GenStmt>,
    },
}

fn arb_stmt(depth: u32) -> BoxedStrategy<GenStmt> {
    let call = (0u8..3, 0u8..4, 0u8..3, any::<bool>()).prop_map(|(recv, method, key, ret)| {
        GenStmt::Call {
            recv,
            method,
            key,
            ret,
        }
    });
    if depth == 0 {
        call.boxed()
    } else {
        prop_oneof![
            3 => call,
            1 => (
                0u8..3,
                proptest::collection::vec(arb_stmt(depth - 1), 1..3),
                proptest::collection::vec(arb_stmt(depth - 1), 0..2),
            )
                .prop_map(|(key, then_branch, else_branch)| GenStmt::If {
                    key,
                    then_branch,
                    else_branch
                }),
        ]
        .boxed()
    }
}

fn lower(stmts: &[GenStmt], body: Body, tmp: &mut usize) -> Body {
    let mut body = body;
    for s in stmts {
        body = match s {
            GenStmt::Call {
                recv,
                method,
                key,
                ret,
            } => {
                let key_var = format!("k{key}");
                let (recv_name, method_name, args): (&str, &str, Vec<Expr>) = match recv % 3 {
                    0 | 1 => {
                        let r = if recv % 3 == 0 { "m1" } else { "m2" };
                        match method % 4 {
                            0 => (r, "get", vec![Expr::Var(key_var)]),
                            1 => (r, "put", vec![Expr::Var(key_var), Expr::Const(Value(1))]),
                            2 => (r, "remove", vec![Expr::Var(key_var)]),
                            _ => (r, "containsKey", vec![Expr::Var(key_var)]),
                        }
                    }
                    _ => match method % 3 {
                        0 => ("s", "add", vec![Expr::Var(key_var)]),
                        1 => ("s", "remove", vec![Expr::Var(key_var)]),
                        _ => ("s", "contains", vec![Expr::Var(key_var)]),
                    },
                };
                if *ret {
                    *tmp += 1;
                    let t = format!("t{tmp}");
                    body.call_into(&t, recv_name, method_name, args)
                } else {
                    body.call(recv_name, method_name, args)
                }
            }
            GenStmt::If {
                key,
                then_branch,
                else_branch,
            } => {
                let cond = Expr::Var(format!("k{key}"));
                let tb = lower(then_branch, Body::new(), tmp);
                let eb = lower(else_branch, Body::new(), tmp);
                body.if_else(cond, tb, eb)
            }
        };
    }
    body
}

fn build_section(stmts: &[GenStmt]) -> AtomicSection {
    let mut tmp = 0usize;
    let body = lower(stmts, Body::new(), &mut tmp);
    let mut decls: Vec<(String, VarType)> = vec![
        ("m1".into(), VarType::Ptr("Map".into())),
        ("m2".into(), VarType::Ptr("Map".into())),
        ("s".into(), VarType::Ptr("Set".into())),
    ];
    for k in 0..3 {
        decls.push((format!("k{k}"), VarType::Scalar));
    }
    for t in 1..=tmp {
        decls.push((format!("t{t}"), VarType::Scalar));
    }
    AtomicSection::new("random", decls, body.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the generator produces, the synthesized instrumentation
    /// passes the audit in every configuration: the pipeline never emits
    /// a protocol violation its own verifier would flag.
    #[test]
    fn random_sections_audit_clean_in_all_configs(
        stmts in proptest::collection::vec(arb_stmt(2), 1..6),
    ) {
        for synth in configs() {
            let (_, report) = synth.synthesize_and_audit(&[build_section(&stmts)]);
            prop_assert!(
                report.is_clean(),
                "random section must audit clean:\n{}",
                report.render_text()
            );
        }
    }
}
