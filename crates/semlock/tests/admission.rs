//! Model-checked admission safety: under arbitrary concurrent lock/unlock
//! traffic, no two transactions ever simultaneously hold non-commuting
//! modes on one instance — the central guarantee of §2.2.2.
//!
//! The monitor records each holder *after* its acquisition returns and
//! removes it *before* releasing, so the recorded set is always a subset
//! of the truly-held set; any conflicting pair observed in the recorded
//! set is therefore a real safety violation.

use parking_lot::Mutex;
use proptest::prelude::*;
use semlock::manager::SemLock;
use semlock::mode::{LockSiteId, ModeId, ModeTable};
use semlock::phi::Phi;
use semlock::schema::set_schema;
use semlock::spec::CommutSpec;
use semlock::symbolic::{SymArg, SymOp, SymbolicSet};
use semlock::value::Value;
use std::sync::Arc;

fn fig3b_spec() -> Arc<CommutSpec> {
    CommutSpec::builder(set_schema())
        .always("add", "add")
        .differ("add", 0, "remove", 0)
        .differ("add", 0, "contains", 0)
        .never("add", "size")
        .never("add", "clear")
        .always("remove", "remove")
        .differ("remove", 0, "contains", 0)
        .never("remove", "size")
        .never("remove", "clear")
        .always("contains", "contains")
        .always("contains", "size")
        .never("contains", "clear")
        .always("size", "size")
        .never("size", "clear")
        .always("clear", "clear")
        .build()
}

/// A table mixing keyed mutations, a global read-ish site, and the
/// serializing size/clear site — a worst-case mode zoo.
fn zoo_table(n: u16) -> (Arc<ModeTable>, Vec<LockSiteId>) {
    let schema = set_schema();
    let m = |s: &str| schema.method(s);
    let mut b = ModeTable::builder(schema.clone(), fig3b_spec(), Phi::modulo(n));
    let sites = vec![
        b.add_site(SymbolicSet::new(vec![
            SymOp::new(m("add"), vec![SymArg::Var(0)]),
            SymOp::new(m("remove"), vec![SymArg::Var(0)]),
        ])),
        b.add_site(SymbolicSet::new(vec![SymOp::new(
            m("contains"),
            vec![SymArg::Star],
        )])),
        b.add_site(SymbolicSet::new(vec![
            SymOp::new(m("size"), vec![]),
            SymOp::new(m("clear"), vec![]),
        ])),
        b.add_site(SymbolicSet::new(vec![SymOp::new(
            m("add"),
            vec![SymArg::Star],
        )])),
    ];
    (b.build(), sites)
}

struct Monitor {
    table: Arc<ModeTable>,
    held: Mutex<Vec<ModeId>>,
}

impl Monitor {
    fn enter(&self, mode: ModeId) {
        let mut held = self.held.lock();
        for &other in held.iter() {
            assert!(
                self.table.fc(mode, other),
                "ADMISSION VIOLATION: {} held together with {}",
                self.table.mode(mode).display(self.table.schema()),
                self.table.mode(other).display(self.table.schema()),
            );
        }
        held.push(mode);
    }

    fn exit(&self, mode: ModeId) {
        let mut held = self.held.lock();
        let pos = held.iter().position(|&m| m == mode).expect("mode recorded");
        held.swap_remove(pos);
    }
}

fn stress(n_phi: u16, threads: usize, iters: usize, seed: u64) {
    stress_backend(n_phi, threads, iters, seed, semlock::AdmissionBackend::Auto);
}

fn stress_backend(
    n_phi: u16,
    threads: usize,
    iters: usize,
    seed: u64,
    backend: semlock::AdmissionBackend,
) {
    use semlock::mech::WaitStrategy;
    let (table, sites) = zoo_table(n_phi);
    let lock = Arc::new(SemLock::with_backend(
        table.clone(),
        WaitStrategy::Block,
        backend,
    ));
    let monitor = Arc::new(Monitor {
        table: table.clone(),
        held: Mutex::new(Vec::new()),
    });
    std::thread::scope(|scope| {
        for t in 0..threads {
            let lock = lock.clone();
            let monitor = monitor.clone();
            let table = table.clone();
            let sites = sites.clone();
            scope.spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ t as u64);
                for _ in 0..iters {
                    let site = sites[rng.gen_range(0..sites.len())];
                    let key = Value(rng.gen_range(0..32u64));
                    let mode = table.select(site, &[key]);
                    lock.lock(mode);
                    monitor.enter(mode);
                    // Hold briefly, sometimes yielding to force interleaving.
                    if rng.gen_bool(0.2) {
                        std::thread::yield_now();
                    }
                    monitor.exit(mode);
                    lock.unlock(mode);
                }
            });
        }
    });
    assert!(monitor.held.lock().is_empty());
}

#[test]
fn admission_safety_stress_block() {
    stress(4, 6, 2_000, 0xFEED);
}

#[test]
fn admission_safety_small_phi_forces_conflicts() {
    // n = 1: every keyed mode collapses to one class — maximal conflicts.
    stress(1, 4, 1_500, 0xBEEF);
}

/// Exclusivity is an obligation of the admission protocol, not of any
/// particular counter representation: each one must uphold it under the
/// same keyed chaos traffic. Words whose mode ceiling a partition
/// exceeds are skipped (construction would panic).
#[test]
fn admission_safety_every_backend() {
    use semlock::mech::{DWCAS_MODE_LIMIT, PACKED_MODE_LIMIT};
    use semlock::AdmissionBackend;
    let (table, _) = zoo_table(4);
    let largest = table.partition_sizes().iter().copied().max().unwrap_or(0) as usize;
    let mut ran = 0;
    for backend in AdmissionBackend::CONCRETE {
        let limit = match backend {
            AdmissionBackend::Packed => PACKED_MODE_LIMIT,
            AdmissionBackend::Dwcas => DWCAS_MODE_LIMIT,
            _ => usize::MAX,
        };
        if largest <= limit {
            stress_backend(4, 4, 1_000, 0xD00D, backend);
            ran += 1;
        }
    }
    assert!(ran >= 1, "the wide counters serve every table");
}

#[test]
fn admission_safety_spin_strategy() {
    use semlock::mech::WaitStrategy;
    let (table, sites) = zoo_table(4);
    let lock = Arc::new(SemLock::with_strategy(table.clone(), WaitStrategy::Spin));
    let monitor = Arc::new(Monitor {
        table: table.clone(),
        held: Mutex::new(Vec::new()),
    });
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let lock = lock.clone();
            let monitor = monitor.clone();
            let table = table.clone();
            let sites = sites.clone();
            scope.spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::SmallRng::seed_from_u64(t as u64);
                for _ in 0..1_000 {
                    let site = sites[rng.gen_range(0..sites.len())];
                    let mode = table.select(site, &[Value(rng.gen_range(0..16u64))]);
                    lock.lock(mode);
                    monitor.enter(mode);
                    monitor.exit(mode);
                    lock.unlock(mode);
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized schedule shapes: random φ sizes and thread/iteration
    /// mixes all preserve admission safety.
    #[test]
    fn admission_safety_randomized(
        n_phi in 1u16..8,
        threads in 2usize..5,
        seed in any::<u64>(),
    ) {
        stress(n_phi, threads, 400, seed);
    }
}

/// The §5.3 indistinguishable-mode merge must not change admissions:
/// merged tables admit a pair iff the unmerged commutativity agrees.
#[test]
fn merging_preserves_admission_decisions() {
    let (table, sites) = zoo_table(4);
    // For every pair of (site, key) footprints, F_c on the merged table
    // must equal the pairwise must-commute of the raw symbolic sets —
    // sampled over the key space.
    for &s1 in &sites {
        for &s2 in &sites {
            for k1 in 0..8u64 {
                for k2 in 0..8u64 {
                    let m1 = table.select(s1, &[Value(k1)]);
                    let m2 = table.select(s2, &[Value(k2)]);
                    let fc = table.fc(m1, m2);
                    // Ground truth via fresh unmerged modes.
                    let raw1 = table.mode(m1).clone();
                    let raw2 = table.mode(m2).clone();
                    let truth = semlock::commut::modes_must_commute(
                        table.spec(),
                        &raw1,
                        &raw2,
                        &table.phi(),
                    );
                    assert_eq!(fc, truth, "site pair ({s1:?},{s2:?}) keys ({k1},{k2})");
                }
            }
        }
    }
}

/// Read–write locking is the degenerate case of mode tables (§5.1 calls
/// modes "a generalization of the read-mode and the write-mode"): with a
/// spec where reads commute and writes conflict, the generated table *is*
/// a read–write lock — concurrent readers, exclusive writers.
#[test]
fn rwlock_emerges_from_modes() {
    use semlock::schema::AdtSchema;
    let schema = AdtSchema::builder("Cell")
        .method("read", 0)
        .method("write", 1)
        .build();
    let spec = CommutSpec::builder(schema.clone())
        .always("read", "read")
        .never("read", "write")
        .never("write", "write")
        .build();
    let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(4));
    let r_site = b.add_site(SymbolicSet::new(vec![SymOp::new(
        schema.method("read"),
        vec![],
    )]));
    let w_site = b.add_site(SymbolicSet::new(vec![SymOp::new(
        schema.method("write"),
        vec![SymArg::Star],
    )]));
    let t = b.build();
    let r = t.select(r_site, &[]);
    let w = t.select(w_site, &[]);
    assert!(t.fc(r, r), "readers share");
    assert!(!t.fc(r, w), "writer excludes readers");
    assert!(!t.fc(w, w), "writers exclusive");

    // Behavioural check on the lock itself.
    let lock = SemLock::new(t.clone());
    lock.lock(r);
    assert!(lock.try_lock(r), "second reader admitted");
    assert!(!lock.try_lock(w), "writer blocked by readers");
    lock.unlock(r);
    lock.unlock(r);
    assert!(lock.try_lock(w));
    assert!(!lock.try_lock(r), "reader blocked by writer");
    lock.unlock(w);
}
