//! Every mode table the repo synthesizes has the §5.3 table an every-pair
//! evaluation of `F_c` gives.
//!
//! `ModeTableBuilder::build` evaluates the commutativity function once per
//! equality pattern of abstract values rather than once per pair of modes.
//! This test re-derives each table's raw modes from its sites and checks,
//! on every pair of distinct raw modes, that the table's entry is what
//! `modes_must_commute` says (the entries before the merge), then that the
//! merge and the placement follow from those entries (after it): merged
//! modes are the union of their members, distinct modes have distinct
//! rows, and each mode's conflict list is its row's `false` entries.

use semlock::commut::modes_must_commute;
use semlock::mode::{LockSiteId, Mode, ModeArg, ModeId, ModeOp, ModeTable};
use semlock::phi::{AbsVal, Phi};
use semlock::symbolic::SymArg;
use semlock::value::Value;
use std::collections::HashMap;
use synth::ir::AtomicSection;
use synth::{ClassRegistry, Synthesizer};
use workloads::{interp_chaos, server, synthesis};

/// The registry the `.sl` examples are written against.
fn example_registry() -> ClassRegistry {
    let mut r = ClassRegistry::new();
    for class in ["Map", "Set", "Queue", "Multimap", "WeakMap"] {
        r.register(class, adts::schema_of(class), adts::spec_of(class));
    }
    r
}

/// Every program the repo ships: the `.sl` examples and every `workloads`
/// section set, with the registry each is synthesized against.
fn programs() -> Vec<(String, ClassRegistry, Vec<AtomicSection>)> {
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
        programs.push((path.display().to_string(), example_registry(), sections));
    }
    assert!(programs.len() >= 3, "expected the shipped example programs");
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
    programs
}

/// A value in each of φ's abstract classes.
fn class_representatives(phi: &Phi) -> Vec<Value> {
    let n = phi.n() as usize;
    let mut reps: Vec<Option<Value>> = vec![None; n];
    let mut missing = n;
    let mut v = 0u64;
    while missing > 0 {
        let slot = &mut reps[phi.apply(Value(v)).0 as usize];
        if slot.is_none() {
            *slot = Some(Value(v));
            missing -= 1;
        }
        v += 1;
        assert!(v < 1 << 24, "φ leaves a class empty");
    }
    reps.into_iter().map(Option::unwrap).collect()
}

/// Check `t` against the every-pair evaluation; `name` labels failures.
fn check_table(name: &str, t: &ModeTable) {
    let phi = t.phi();
    let n = phi.n() as usize;
    let reps = class_representatives(&phi);

    // Every raw mode — one per site and assignment of abstract values —
    // with the canonical mode `select` maps it to. Structurally equal raw
    // modes must map to the same canonical mode.
    let mut canon_of: HashMap<Mode, ModeId> = HashMap::new();
    let mut distinct: Vec<(Mode, ModeId)> = Vec::new();
    for s in 0..t.site_count() {
        let site = LockSiteId(s);
        let symset = t.site_symset(site);
        let slots = symset.var_slots();
        for idx in 0..n.pow(slots as u32) {
            let assignment: Vec<usize> = (0..slots).map(|p| idx / n.pow(p as u32) % n).collect();
            let mode = Mode::new(
                symset
                    .ops()
                    .iter()
                    .map(|op| {
                        let args = op.args.iter().map(|a| match a {
                            SymArg::Star => ModeArg::Star,
                            SymArg::Const(c) => ModeArg::Const(*c),
                            SymArg::Var(k) => ModeArg::Abs(AbsVal(assignment[*k] as u16)),
                        });
                        ModeOp::new(op.method, args.collect())
                    })
                    .collect(),
            );
            let keys: Vec<Value> = assignment.iter().map(|&a| reps[a]).collect();
            let canon = t.select(site, &keys);
            match canon_of.get(&mode) {
                Some(&c) => assert_eq!(c, canon, "{name}: one raw mode, two canonical modes"),
                None => {
                    canon_of.insert(mode.clone(), canon);
                    distinct.push((mode, canon));
                }
            }
        }
    }

    // Before the merge: every entry between distinct raw modes.
    for (i, (a, ca)) in distinct.iter().enumerate() {
        for (b, cb) in &distinct[i..] {
            assert_eq!(
                t.fc(*ca, *cb),
                modes_must_commute(t.spec(), a, b, &phi),
                "{name}: F_c({a:?}, {b:?})"
            );
        }
    }

    // After it: each canonical mode is the union of its members, rows are
    // pairwise distinct, and the placement lists each row's conflicts.
    let k = t.mode_count();
    let mut members: Vec<Vec<ModeOp>> = vec![Vec::new(); k];
    for (m, c) in &distinct {
        members[c.0 as usize].extend(m.ops().iter().cloned());
    }
    let rows: Vec<Vec<bool>> = (0..k)
        .map(|a| {
            (0..k)
                .map(|b| t.fc(ModeId(a as u32), ModeId(b as u32)))
                .collect()
        })
        .collect();
    let mut seen: HashMap<&[bool], usize> = HashMap::new();
    for (a, ops) in members.into_iter().enumerate() {
        let id = ModeId(a as u32);
        assert!(!ops.is_empty(), "{name}: mode {a} is selected by no site");
        assert_eq!(t.mode(id), &Mode::new(ops), "{name}: merged mode {a}");
        if let Some(b) = seen.insert(&rows[a], a) {
            panic!("{name}: modes {b} and {a} have one F_c row but were not merged");
        }
        let p = t.placement(id);
        let conflicts: Vec<u32> = (0..k)
            .filter(|&b| !rows[a][b])
            .map(|b| t.placement(ModeId(b as u32)).local)
            .collect();
        assert_eq!(
            p.local_conflicts, conflicts,
            "{name}: conflicts of mode {a}"
        );
        assert_eq!(p.free, conflicts.is_empty(), "{name}: mode {a} free");
    }
}

#[test]
fn every_synthesized_table_has_the_every_pair_fc() {
    let mut tables = 0;
    for (name, registry, sections) in programs() {
        let out = Synthesizer::new(registry)
            .phi(Phi::fib(64))
            .synthesize(&sections);
        for class in out.tables.classes() {
            check_table(&format!("{name}/{class}"), out.tables.table(class));
            tables += 1;
        }
    }
    assert!(tables >= 10, "only {tables} tables checked");
}
