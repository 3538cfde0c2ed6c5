//! The ComputeIfAbsent benchmark (§6.1, Fig. 21).
//!
//! Simulates the widely-used pattern
//! `if (!map.containsKey(key)) { value = compute(); map.put(key, value); }`
//! whose non-atomic realizations cause many real-world bugs. The
//! computation is emulated by allocating 128 bytes, as in the paper.
//!
//! Strategies: *Ours* (compiler-synthesized semantic locking, 64 abstract
//! values → 64 independent key-class modes), *Global*, *2PL* (one lock for
//! the single map instance — necessarily equal to Global here), *Manual*
//! (64-way lock striping), and *V8* (`computeIfAbsent` of a sharded
//! concurrent map).

use crate::sync_kind::SyncKind;
use crate::synthesis::{cia_section, registry, runtime_site, stable_site};
use adts::MapAdt;
use baselines::{GlobalLock, StripedLock, TplLock, TplTxn, V8Map};
use rand::rngs::SmallRng;
use rand::Rng;
use semlock::manager::SemLock;
use semlock::mode::{LockSiteId, ModeTable};
use semlock::phi::Phi;
use semlock::txn::Txn;
use semlock::value::Value;
use semlock::AcquireSpec;
use std::sync::Arc;
use synth::Synthesizer;

/// The emulated pure computation: allocate 128 bytes (per §6.1) and
/// produce the value for `k`.
#[inline]
fn compute_value(k: Value) -> Value {
    let buf = std::hint::black_box(vec![0u8; 128]);
    std::hint::black_box(&buf);
    Value(k.0 + 1)
}

/// The ComputeIfAbsent benchmark state.
pub struct ComputeIfAbsent {
    kind: SyncKind,
    key_range: u64,
    map: MapAdt,
    v8: V8Map,
    sem_lock: SemLock,
    sem_table: Arc<ModeTable>,
    sem_site: LockSiteId,
    /// Stable telemetry site id of the section's map acquisition.
    sem_site_id: u32,
    global: GlobalLock,
    tpl: TplLock,
    striped: StripedLock,
}

impl ComputeIfAbsent {
    /// Create with the paper's configuration (φ n = 64, 64 stripes).
    pub fn new(kind: SyncKind, key_range: u64) -> ComputeIfAbsent {
        Self::with_phi(kind, key_range, Phi::fib(64))
    }

    /// Create with an explicit φ (used by the φ-resolution ablation).
    pub fn with_phi(kind: SyncKind, key_range: u64, phi: Phi) -> ComputeIfAbsent {
        let out = Synthesizer::new(registry())
            .phi(phi)
            .synthesize(&[cia_section()]);
        let (site, class) = runtime_site(&out, "cia", "map");
        debug_assert_eq!(class, "Map");
        let site_id = stable_site(&out, "cia", "map");
        let table = out.tables.table("Map").clone();
        ComputeIfAbsent {
            kind,
            key_range,
            map: MapAdt::new(),
            v8: V8Map::new(64),
            sem_lock: SemLock::new(table.clone()),
            sem_table: table,
            sem_site: site,
            sem_site_id: site_id,
            global: GlobalLock::new(),
            tpl: TplLock::new(),
            striped: StripedLock::paper_default(),
        }
    }

    /// The synthesized mode table (diagnostics / ablations).
    pub fn mode_table(&self) -> &Arc<ModeTable> {
        &self.sem_table
    }

    /// Contention counters of the semantic lock.
    pub fn contention(&self) -> (u64, u64) {
        self.sem_lock.contention()
    }

    /// Perform one random operation (one ComputeIfAbsent invocation).
    pub fn op(&self, _tid: usize, rng: &mut SmallRng) {
        let k = Value(rng.gen_range(0..self.key_range));
        self.invoke(k);
    }

    /// One ComputeIfAbsent invocation on key `k` under the configured
    /// synchronization.
    pub fn invoke(&self, k: Value) {
        match self.kind {
            SyncKind::Semantic => {
                // Mirrors the compiled output: select the mode for the
                // site's key environment, lock, run the section, unlock.
                let mode = self.sem_table.select(self.sem_site, &[k]);
                let mut txn = Txn::new();
                if semlock::telemetry::enabled() {
                    semlock::telemetry::set_site(self.sem_site_id);
                }
                txn.acquire(&self.sem_lock, &AcquireSpec::new(mode))
                    .expect("cia: semantic acquisition failed");
                if !self.map.contains_key(k) {
                    self.map.put(k, compute_value(k));
                }
                txn.unlock_all();
            }
            SyncKind::Global => {
                let _g = self.global.enter();
                if !self.map.contains_key(k) {
                    self.map.put(k, compute_value(k));
                }
            }
            SyncKind::TwoPl => {
                let mut txn = TplTxn::new();
                txn.lv(&self.tpl);
                if !self.map.contains_key(k) {
                    self.map.put(k, compute_value(k));
                }
                txn.unlock_all();
            }
            SyncKind::Manual => {
                self.striped.with_key(k, || {
                    if !self.map.contains_key(k) {
                        self.map.put(k, compute_value(k));
                    }
                });
            }
            SyncKind::V8 => {
                self.v8.compute_if_absent(k, || compute_value(k));
            }
        }
    }

    /// Validate post-conditions: every present key has the value its
    /// (unique) compute produced.
    pub fn validate(&self) -> Result<(), String> {
        let entries = match self.kind {
            SyncKind::V8 => (0..self.key_range)
                .filter_map(|k| {
                    let v = self.v8.get(Value(k));
                    if v.is_null() {
                        None
                    } else {
                        Some((Value(k), v))
                    }
                })
                .collect::<Vec<_>>(),
            _ => self.map.entries(),
        };
        for (k, v) in entries {
            if v != Value(k.0 + 1) {
                return Err(format!("key {k} has corrupt value {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fixed_ops;

    fn stress(kind: SyncKind) {
        let bench = ComputeIfAbsent::with_phi(kind, 64, Phi::fib(16));
        run_fixed_ops(4, 500, 7, &|t, rng| bench.op(t, rng));
        bench.validate().unwrap();
    }

    #[test]
    fn semantic_stress() {
        stress(SyncKind::Semantic);
    }

    #[test]
    fn global_stress() {
        stress(SyncKind::Global);
    }

    #[test]
    fn two_pl_stress() {
        stress(SyncKind::TwoPl);
    }

    #[test]
    fn manual_stress() {
        stress(SyncKind::Manual);
    }

    #[test]
    fn v8_stress() {
        stress(SyncKind::V8);
    }

    #[test]
    fn semantic_parallelism_witness() {
        // Two transactions on different key classes can hold their modes
        // concurrently: verified via the admission function directly.
        let bench = ComputeIfAbsent::new(SyncKind::Semantic, 1024);
        let t = bench.mode_table();
        let m1 = t.select(bench.sem_site, &[Value(0)]);
        let mut m2 = None;
        for k in 1..1024 {
            let m = t.select(bench.sem_site, &[Value(k)]);
            if m != m1 {
                m2 = Some(m);
                break;
            }
        }
        assert!(t.fc(m1, m2.expect("a second key class exists")));
    }
}
