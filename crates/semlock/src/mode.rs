//! Locking modes and the mode table (§5.1, §5.3).
//!
//! The compiler implements the semantic locking of an ADT by generating a
//! *finite* number of locking modes, each representing a set of runtime
//! operations — a generalization of the read/write modes of a classical
//! read–write lock. Modes are derived from the symbolic sets inferred by the
//! §4 analysis:
//!
//! * a **constant** symbolic set (no program variables) becomes a single
//!   mode;
//! * a **variable** symbolic set with `k` variables becomes `nᵏ` modes, one
//!   per assignment of abstract values `α₀ … α_{n-1}` to the variables.
//!
//! [`ModeTable`] owns the generated modes, the commutativity function `F_c`
//! between them, and the partition of modes into independent locking
//! mechanisms (§5.2). It also implements the §5.3 optimizations:
//! indistinguishable-mode merging and the mode-count cap `N` (realized by
//! coarsening φ until the table fits).

use crate::commut::modes_must_commute;
use crate::partition::UnionFind;
use crate::phi::{AbsVal, Phi};
use crate::schema::{AdtSchema, MethodIdx};
use crate::spec::CommutSpec;
use crate::symbolic::{Operation, SymArg, SymbolicSet};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// An argument of a mode operation: constant, abstract value, or wildcard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ModeArg {
    /// Any value (`*`).
    Star,
    /// Exactly this value.
    Const(Value),
    /// Any value in abstract class αᵢ.
    Abs(AbsVal),
}

impl fmt::Display for ModeArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeArg::Star => write!(f, "*"),
            ModeArg::Const(c) => write!(f, "{c}"),
            ModeArg::Abs(a) => write!(f, "{a}"),
        }
    }
}

/// One operation pattern within a mode, e.g. `add(α₃)` or `put(α₁, *)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ModeOp {
    /// Method index in the ADT schema.
    pub method: MethodIdx,
    /// Abstract argument patterns.
    pub args: Vec<ModeArg>,
}

impl ModeOp {
    /// Construct a mode operation.
    pub fn new(method: MethodIdx, args: Vec<ModeArg>) -> Self {
        ModeOp { method, args }
    }

    /// Does this pattern cover a concrete operation under φ?
    pub fn covers(&self, op: &Operation, phi: &Phi) -> bool {
        self.method == op.method
            && self.args.len() == op.args.len()
            && self.args.iter().zip(&op.args).all(|(m, v)| match m {
                ModeArg::Star => true,
                ModeArg::Const(c) => c == v,
                ModeArg::Abs(a) => phi.apply(*v) == *a,
            })
    }
}

/// A locking mode: a set of operation patterns.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Mode {
    ops: Vec<ModeOp>,
}

impl Mode {
    /// Build a mode from patterns (canonicalized: sorted, deduplicated,
    /// subsumed patterns dropped — `add(α₁)` is redundant next to
    /// `add(*)`; the covered operation set is unchanged).
    pub fn new(mut ops: Vec<ModeOp>) -> Self {
        ops.sort();
        ops.dedup();
        let subsumes = |general: &ModeOp, specific: &ModeOp| {
            general.method == specific.method
                && general
                    .args
                    .iter()
                    .zip(&specific.args)
                    .all(|(g, s)| matches!(g, ModeArg::Star) || g == s)
        };
        let keep: Vec<bool> = ops
            .iter()
            .map(|op| !ops.iter().any(|other| other != op && subsumes(other, op)))
            .collect();
        let mut it = keep.iter();
        ops.retain(|_| *it.next().unwrap());
        Mode { ops }
    }

    /// The mode covering every operation of the schema — the `lock(+)` of §3.
    pub fn all_operations(schema: &AdtSchema) -> Self {
        Mode::new(
            (0..schema.method_count())
                .map(|m| ModeOp::new(m, vec![ModeArg::Star; schema.sig(m).arity]))
                .collect(),
        )
    }

    /// The operation patterns.
    pub fn ops(&self) -> &[ModeOp] {
        &self.ops
    }

    /// Does this mode cover (grant permission for) a concrete operation?
    pub fn covers(&self, op: &Operation, phi: &Phi) -> bool {
        self.ops.iter().any(|m| m.covers(op, phi))
    }

    /// Render against a schema, e.g. `{add(α1),remove(α0)}`.
    pub fn display<'a>(&'a self, schema: &'a AdtSchema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Mode, &'a AdtSchema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                for (i, o) in self.0.ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}(", self.1.sig(o.method).name)?;
                    for (j, a) in o.args.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")?;
                }
                write!(f, "}}")
            }
        }
        D(self, schema)
    }
}

/// Identifier of a canonical mode within a [`ModeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModeId(pub u32);

/// Identifier of a lock site registered with a [`ModeTableBuilder`].
///
/// A lock site corresponds to one inserted `lock(SY)` call; its symbolic set
/// determines which mode the runtime selects given the site's key values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockSiteId(pub usize);

#[derive(Debug)]
enum SiteKind {
    /// Constant symbolic set: always this raw mode.
    Const(u32),
    /// Variable symbolic set: raw mode = `base + Σ φ(vᵢ)·nⁱ`.
    Var { base: u32, slots: usize },
}

#[derive(Debug)]
struct Site {
    symset: SymbolicSet,
    kind: SiteKind,
}

/// Per-mode placement inside the partitioned locking mechanisms.
#[derive(Clone, Debug)]
pub struct ModePlacement {
    /// Partition (mechanism) index.
    pub part: u32,
    /// Index of this mode within its partition.
    pub local: u32,
    /// Local indices (within the same partition) of conflicting modes.
    pub local_conflicts: Vec<u32>,
    /// Admission-word field mask over `local_conflicts`
    /// ([`crate::mech::conflict_mask`]), precomputed here so the admission
    /// fast path ([`crate::mech::Mech`]) does zero per-acquire setup.
    /// Covers only locals within [`crate::mech::DWCAS_MODE_LIMIT`];
    /// partitions wider than that use the wide counters and never consult
    /// the mask.
    pub conflict_mask: u128,
    /// True if the mode commutes with every mode including itself: locking
    /// it can never block nor be blocked, so acquisition is a no-op.
    pub free: bool,
}

impl ModePlacement {
    /// The mode's conflict set in the borrowed form the mechanism consumes.
    pub fn conflicts(&self) -> crate::mech::ConflictSet<'_> {
        crate::mech::ConflictSet::from_parts(&self.local_conflicts, self.conflict_mask)
    }
}

/// The compiled locking-mode table for one ADT equivalence class.
pub struct ModeTable {
    schema: Arc<AdtSchema>,
    spec: Arc<CommutSpec>,
    phi: Phi,
    sites: Vec<Site>,
    /// Raw (pre-merge) mode index → canonical mode id.
    raw_to_canon: Vec<u32>,
    /// Canonical modes after dedup + indistinguishable merging.
    modes: Vec<Mode>,
    /// `F_c` over canonical modes, row-major `modes.len()²` bit matrix.
    fc: Vec<bool>,
    /// Placement of each canonical mode in the partitioned mechanisms.
    placement: Vec<ModePlacement>,
    /// Modes per partition.
    part_sizes: Vec<u32>,
}

impl ModeTable {
    /// Start building a table.
    pub fn builder(schema: Arc<AdtSchema>, spec: Arc<CommutSpec>, phi: Phi) -> ModeTableBuilder {
        assert!(
            Arc::ptr_eq(spec.schema(), &schema) || *spec.schema() == schema,
            "specification is for a different schema"
        );
        ModeTableBuilder {
            schema,
            spec,
            phi,
            symsets: Vec::new(),
            cap: DEFAULT_MODE_CAP,
            partitioning: true,
        }
    }

    /// The ADT schema.
    pub fn schema(&self) -> &Arc<AdtSchema> {
        &self.schema
    }

    /// The commutativity specification.
    pub fn spec(&self) -> &Arc<CommutSpec> {
        &self.spec
    }

    /// The (possibly coarsened) abstract-value hash in effect.
    pub fn phi(&self) -> Phi {
        self.phi
    }

    /// Number of canonical modes.
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// Number of partitions (independent locking mechanisms).
    pub fn partition_count(&self) -> usize {
        self.part_sizes.len()
    }

    /// Modes per partition, indexed by partition id.
    pub fn partition_sizes(&self) -> &[u32] {
        &self.part_sizes
    }

    /// The canonical mode with the given id.
    pub fn mode(&self, id: ModeId) -> &Mode {
        &self.modes[id.0 as usize]
    }

    /// Placement information for a mode.
    pub fn placement(&self, id: ModeId) -> &ModePlacement {
        &self.placement[id.0 as usize]
    }

    /// Reverse placement lookup: the canonical mode at `(part, local)`, if
    /// any. A linear scan over the (small) mode set — used by the
    /// telemetry layer to attribute sampled conflicting holds back to
    /// canonical mode ids, never on the admission path.
    pub fn mode_for_local(&self, part: u32, local: u32) -> Option<ModeId> {
        self.placement
            .iter()
            .position(|p| !p.free && p.part == part && p.local == local)
            .map(|i| ModeId(i as u32))
    }

    /// The commutativity function `F_c` between two canonical modes.
    pub fn fc(&self, a: ModeId, b: ModeId) -> bool {
        self.fc[a.0 as usize * self.modes.len() + b.0 as usize]
    }

    /// Select the mode for a lock site given the runtime values of its key
    /// slots — the dynamic mode lookup of §5.1 (`t1 = φ(i); …`).
    pub fn select(&self, site: LockSiteId, keys: &[Value]) -> ModeId {
        let site = &self.sites[site.0];
        let raw = match site.kind {
            SiteKind::Const(raw) => raw,
            SiteKind::Var { base, slots } => {
                assert!(
                    keys.len() >= slots,
                    "site needs {} key values, got {}",
                    slots,
                    keys.len()
                );
                let n = self.phi.n() as u32;
                let mut idx = 0u32;
                for i in (0..slots).rev() {
                    idx = idx * n + self.phi.apply(keys[i]).0 as u32;
                }
                base + idx
            }
        };
        ModeId(self.raw_to_canon[raw as usize])
    }

    /// The symbolic set registered for a site.
    pub fn site_symset(&self, site: LockSiteId) -> &SymbolicSet {
        &self.sites[site.0].symset
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Does a mode grant permission to invoke a concrete operation?
    /// Used by the S2PL protocol checker.
    pub fn mode_covers(&self, id: ModeId, op: &Operation) -> bool {
        self.mode(id).covers(op, &self.phi)
    }
}

impl fmt::Debug for ModeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ModeTable for {} (φ n={}, {} modes, {} partitions):",
            self.schema.name(),
            self.phi.n(),
            self.modes.len(),
            self.part_sizes.len()
        )?;
        for (i, m) in self.modes.iter().enumerate() {
            writeln!(
                f,
                "  m{}: {} part={} free={}",
                i,
                m.display(&self.schema),
                self.placement[i].part,
                self.placement[i].free
            )?;
        }
        Ok(())
    }
}

/// Default cap `N` on the number of modes per ADT class (§5.3 opt. 3).
pub const DEFAULT_MODE_CAP: usize = 4096;

/// Builder for [`ModeTable`]: register the symbolic sets of all lock sites
/// of one equivalence class, then build.
pub struct ModeTableBuilder {
    schema: Arc<AdtSchema>,
    spec: Arc<CommutSpec>,
    phi: Phi,
    symsets: Vec<SymbolicSet>,
    cap: usize,
    partitioning: bool,
}

impl ModeTableBuilder {
    /// Override the mode-count cap `N`.
    pub fn cap(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.cap = n;
        self
    }

    /// Disable lock partitioning (§5.2): all modes share a single
    /// mechanism, whose internal lock becomes the bottleneck the paper
    /// describes. Used by the ablation benchmarks.
    pub fn single_partition(mut self) -> Self {
        self.partitioning = false;
        self
    }

    /// Register a lock site with the given symbolic set; returns the id the
    /// runtime will use to select modes at this site.
    pub fn add_site(&mut self, symset: SymbolicSet) -> LockSiteId {
        assert!(!symset.is_empty(), "a lock site must lock something");
        let id = LockSiteId(self.symsets.len());
        self.symsets.push(symset);
        id
    }

    /// Convenience: register the `lock(+)` site covering all operations.
    pub fn add_site_all(&mut self) -> LockSiteId {
        self.add_site(SymbolicSet::all_operations(&self.schema))
    }

    /// Generate modes, merge per §5.3, compute `F_c`, and partition.
    pub fn build(self) -> Arc<ModeTable> {
        self.build_with(fc_by_pattern)
    }

    /// [`ModeTableBuilder::build`] with step 2's `F_c` evaluation passed
    /// in, so tests can swap in the every-pair reference.
    fn build_with(self, fc_of: FcEval) -> Arc<ModeTable> {
        let ModeTableBuilder {
            schema,
            spec,
            mut phi,
            symsets,
            cap,
            partitioning,
        } = self;

        // Coarsen φ until the raw mode count fits the cap (§5.3 opt. 3:
        // "if we infer more than N modes, we merge them until we have N").
        // Merging assignments that collide under a coarser φ is exactly a
        // union of the merged modes' operation sets.
        let raw_count = |phi: &Phi| -> usize {
            symsets
                .iter()
                .map(|sy| {
                    if sy.is_variable() {
                        (phi.n() as usize).saturating_pow(sy.var_slots() as u32)
                    } else {
                        1
                    }
                })
                .sum()
        };
        while raw_count(&phi) > cap && phi.n() > 1 {
            phi = phi.coarsen(phi.n() / 2);
        }

        // Materialize raw modes per site, remembering where each came from
        // (its site and the index of its abstract-value assignment).
        let mut sites = Vec::with_capacity(symsets.len());
        let mut raw_modes: Vec<Mode> = Vec::new();
        let mut raw_origin: Vec<(u32, u32)> = Vec::new();
        let n = phi.n() as usize;
        for symset in symsets {
            let s = sites.len() as u32;
            if !symset.is_variable() {
                let raw = raw_modes.len() as u32;
                raw_modes.push(instantiate(&symset, &[]));
                raw_origin.push((s, 0));
                sites.push(Site {
                    symset,
                    kind: SiteKind::Const(raw),
                });
            } else {
                let slots = symset.var_slots();
                let base = raw_modes.len() as u32;
                let mut assignment = Vec::with_capacity(slots);
                for idx in 0..n.pow(slots as u32) {
                    decode(idx, n, slots, &mut assignment);
                    raw_modes.push(instantiate(&symset, &assignment));
                    raw_origin.push((s, idx as u32));
                }
                sites.push(Site {
                    symset,
                    kind: SiteKind::Var { base, slots },
                });
            }
        }

        // Step 1: dedup structurally identical modes. The first raw mode
        // of each class represents it; representatives come in raw order.
        let mut dedup_of: HashMap<&Mode, u32> = HashMap::new();
        let mut reps: Vec<u32> = Vec::new();
        let raw_to_dedup: Vec<u32> = raw_modes
            .iter()
            .enumerate()
            .map(|(r, m)| {
                *dedup_of.entry(m).or_insert_with(|| {
                    reps.push(r as u32);
                    (reps.len() - 1) as u32
                })
            })
            .collect();
        drop(dedup_of);
        let mut is_rep = vec![false; raw_modes.len()];
        for &r in &reps {
            is_rep[r as usize] = true;
        }
        let deduped: Vec<Mode> = raw_modes
            .into_iter()
            .zip(is_rep)
            .filter_map(|(m, rep)| rep.then_some(m))
            .collect();

        // Step 2: F_c over deduped modes (symmetric), evaluated once per
        // equality pattern.
        let k = deduped.len();
        let origins: Vec<(u32, u32)> = reps.iter().map(|&r| raw_origin[r as usize]).collect();
        let fc = fc_of(&spec, &phi, &sites, &deduped, &origins);

        // Step 3: merge indistinguishable modes — identical F_c rows
        // (§5.3 opt. 1). Such modes admit exactly the same concurrency, so
        // one representative (with the union of operation patterns, kept for
        // coverage checks) suffices.
        // Rows are compared as bit sets, 64 entries a word.
        let words = k.div_ceil(64);
        let mut rows = vec![0u64; k * words];
        for (e, _) in fc.iter().enumerate().filter(|(_, &c)| c) {
            let (i, j) = (e / k, e % k);
            rows[i * words + j / 64] |= 1 << (j % 64);
        }
        let mut row_repr: HashMap<&[u64], u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut dedup_to_canon = vec![0u32; k];
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for i in 0..k {
            let row = &rows[i * words..(i + 1) * words];
            if let Some(&g) = row_repr.get(row) {
                dedup_to_canon[i] = g;
                groups[g as usize].push(i as u32);
            } else {
                let g = groups.len() as u32;
                row_repr.insert(row, g);
                dedup_to_canon[i] = g;
                groups.push(vec![i as u32]);
            }
        }
        drop(row_repr);
        let (modes, canon_fc) = if groups.len() == k {
            // No rows merged: every group is one deduped mode, in order.
            (deduped, fc)
        } else {
            let modes: Vec<Mode> = groups
                .iter()
                .map(|g| {
                    let mut ops = Vec::new();
                    for &d in g {
                        ops.extend(deduped[d as usize].ops().iter().cloned());
                    }
                    Mode::new(ops)
                })
                .collect();
            let n_canon = modes.len();
            let mut canon_fc = vec![true; n_canon * n_canon];
            for a in 0..n_canon {
                for b in 0..n_canon {
                    // Representative rows are identical within a group, so
                    // any member's entry is the group's entry.
                    let i = groups[a][0] as usize;
                    let j = groups[b][0] as usize;
                    canon_fc[a * n_canon + b] = fc[i * k + j];
                }
            }
            (modes, canon_fc)
        };
        let n_canon = modes.len();
        let raw_to_canon: Vec<u32> = raw_to_dedup
            .iter()
            .map(|&d| dedup_to_canon[d as usize])
            .collect();

        // Step 4: partition modes into independent mechanisms (§5.2): two
        // modes share a mechanism iff connected by a chain of conflicts.
        let mut uf = UnionFind::new(n_canon);
        if partitioning {
            for a in 0..n_canon {
                for b in (a + 1)..n_canon {
                    if !canon_fc[a * n_canon + b] {
                        uf.union(a, b);
                    }
                }
            }
        } else {
            for a in 1..n_canon {
                uf.union(0, a);
            }
        }
        let mut part_ids: HashMap<usize, u32> = HashMap::new();
        let mut part_sizes: Vec<u32> = Vec::new();
        let mut placement: Vec<ModePlacement> = Vec::with_capacity(n_canon);
        for m in 0..n_canon {
            let root = uf.find(m);
            let part = *part_ids.entry(root).or_insert_with(|| {
                part_sizes.push(0);
                (part_sizes.len() - 1) as u32
            });
            let local = part_sizes[part as usize];
            part_sizes[part as usize] += 1;
            placement.push(ModePlacement {
                part,
                local,
                local_conflicts: Vec::new(),
                conflict_mask: 0,
                free: false,
            });
        }
        // Local conflict lists and the "free" flag.
        for a in 0..n_canon {
            let mut conflicts = Vec::new();
            for b in 0..n_canon {
                if !canon_fc[a * n_canon + b] {
                    debug_assert_eq!(placement[a].part, placement[b].part);
                    conflicts.push(placement[b].local);
                }
            }
            // Without partitioning even conflict-free modes go through the
            // single mechanism — that is precisely the bottleneck the
            // ablation measures.
            placement[a].free = partitioning && conflicts.is_empty();
            placement[a].conflict_mask = crate::mech::conflict_mask(&conflicts);
            placement[a].local_conflicts = conflicts;
        }

        Arc::new(ModeTable {
            schema,
            spec,
            phi,
            sites,
            raw_to_canon,
            modes,
            fc: canon_fc,
            placement,
            part_sizes,
        })
    }
}

/// Substitute an assignment of abstract values for the variable slots of a
/// symbolic set, producing a mode.
fn instantiate(symset: &SymbolicSet, assignment: &[AbsVal]) -> Mode {
    Mode::new(
        symset
            .ops()
            .iter()
            .map(|op| {
                ModeOp::new(
                    op.method,
                    op.args
                        .iter()
                        .map(|a| match a {
                            SymArg::Star => ModeArg::Star,
                            SymArg::Const(c) => ModeArg::Const(*c),
                            SymArg::Var(k) => ModeArg::Abs(assignment[*k]),
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Decode raw assignment index `idx` into one abstract value per slot
/// (slot 0 is the least significant base-`n` digit, matching `select`).
fn decode(mut idx: usize, n: usize, slots: usize, out: &mut Vec<AbsVal>) {
    out.clear();
    for _ in 0..slots {
        out.push(AbsVal((idx % n) as u16));
        idx /= n;
    }
}

/// Step 2 of [`ModeTableBuilder::build`]: the arguments of
/// [`fc_by_pattern`], its result.
type FcEval = fn(&CommutSpec, &Phi, &[Site], &[Mode], &[(u32, u32)]) -> Vec<bool>;

/// `F_c` over deduplicated modes as a row-major `k²` matrix, where mode
/// `d` was instantiated at site `origins[d].0` under assignment index
/// `origins[d].1`.
///
/// `F_c` is invariant under renaming abstract values: the three-valued
/// equality of `commut` compares an abstract value only with another one
/// or with `φ(c)` for a constant `c`. So the entry for two modes is a
/// function of their sites and of the equality pattern of (slots of the
/// first ‖ slots of the second ‖ `φ` of every constant in the symbolic
/// sets and the spec). Each mode's own part of that pattern — its site,
/// which of its slots are equal, which equal which `φ(c)` — is interned
/// as a *shape*; a pair's key is its two shapes plus one bit per
/// cross-slot equality, and [`modes_must_commute`] runs once per distinct
/// key instead of once per pair. Modes too wide to key (more than 8 slots,
/// or more than 24 cross-slot bits) are evaluated directly.
fn fc_by_pattern(
    spec: &CommutSpec,
    phi: &Phi,
    sites: &[Site],
    modes: &[Mode],
    origins: &[(u32, u32)],
) -> Vec<bool> {
    // Rank of each constant's abstract value among the distinct ones, plus
    // one (0: no constant maps there).
    let n = phi.n() as usize;
    let mut const_rank = vec![0u8; n];
    let mut n_consts = 0usize;
    let mut note = |c: Value| {
        let slot = &mut const_rank[phi.apply(c).0 as usize];
        if *slot == 0 && n_consts < 255 {
            n_consts += 1;
            *slot = n_consts as u8;
        }
    };
    spec.for_each_const(&mut note);
    for site in sites {
        for op in site.symset.ops() {
            for a in &op.args {
                if let SymArg::Const(c) = a {
                    note(*c);
                }
            }
        }
    }
    // Codes are one byte: constant ranks, then up to 8 fresh values.
    let keyable_consts = n_consts <= 248;

    // Each mode's assignment and shape id (`u32::MAX`: not keyable).
    let k = modes.len();
    let mut values: Vec<AbsVal> = Vec::new();
    let mut spans: Vec<(u32, u32)> = Vec::with_capacity(k);
    let mut shapes: Vec<u32> = Vec::with_capacity(k);
    let mut shape_ids: HashMap<(u32, u64), u32> = HashMap::new();
    let mut assignment = Vec::new();
    let mut fresh: Vec<AbsVal> = Vec::new();
    for &(s, idx) in origins {
        let slots = match sites[s as usize].kind {
            SiteKind::Const(_) => 0,
            SiteKind::Var { slots, .. } => slots,
        };
        decode(idx as usize, n, slots, &mut assignment);
        spans.push((values.len() as u32, slots as u32));
        values.extend_from_slice(&assignment);
        if slots > 8 || !keyable_consts {
            shapes.push(u32::MAX);
            continue;
        }
        // Slot codes: a constant's rank, else n_consts + the rank of the
        // value's first occurrence among this mode's other values.
        let mut code = 0u64;
        fresh.clear();
        for (p, &v) in assignment.iter().enumerate() {
            let c = match const_rank[v.0 as usize] {
                0 => {
                    let r = fresh.iter().position(|&f| f == v).unwrap_or_else(|| {
                        fresh.push(v);
                        fresh.len() - 1
                    });
                    n_consts + r
                }
                r => r as usize - 1,
            };
            code |= (c as u64) << (8 * p);
        }
        let next = shape_ids.len() as u32;
        shapes.push(*shape_ids.entry((s, code)).or_insert(next));
    }
    let keyable = |shape: u32| shape < 1 << 20;

    let mut seen: HashMap<u64, bool, BuildHasherDefault<KeyHasher>> = HashMap::default();
    let mut fc = vec![true; k * k];
    for i in 0..k {
        let (si, li) = spans[i];
        let a = &values[si as usize..][..li as usize];
        for j in i..k {
            let (sj, lj) = spans[j];
            let b = &values[sj as usize..][..lj as usize];
            let eval = || modes_must_commute(spec, &modes[i], &modes[j], phi);
            let c = if keyable(shapes[i]) && keyable(shapes[j]) && a.len() * b.len() <= 24 {
                let mut cross = 0u64;
                for (p, x) in a.iter().enumerate() {
                    for (q, y) in b.iter().enumerate() {
                        cross |= u64::from(x == y) << (p * b.len() + q);
                    }
                }
                let key = u64::from(shapes[i]) << 44 | u64::from(shapes[j]) << 24 | cross;
                *seen.entry(key).or_insert_with(eval)
            } else {
                eval()
            };
            fc[i * k + j] = c;
            fc[j * k + i] = c;
        }
    }
    fc
}

/// Hasher for the build's word keys ([`fc_by_pattern`]'s packed pair
/// keys, step 3's bit rows): one folded multiply per word.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The every-pair reference for [`fc_by_pattern`]: `modes_must_commute`
/// on each of the `k(k+1)/2` pairs, as the table was built before
/// evaluation by pattern.
#[cfg(test)]
fn fc_every_pair(
    spec: &CommutSpec,
    phi: &Phi,
    _: &[Site],
    modes: &[Mode],
    _: &[(u32, u32)],
) -> Vec<bool> {
    let k = modes.len();
    let mut fc = vec![true; k * k];
    for i in 0..k {
        for j in i..k {
            let c = modes_must_commute(spec, &modes[i], &modes[j], phi);
            fc[i * k + j] = c;
            fc[j * k + i] = c;
        }
    }
    fc
}

#[cfg(test)]
impl ModeTableBuilder {
    /// Build twice, by pattern and with the every-pair reference, and
    /// assert the two agree entry by entry before the §5.3 merge (the
    /// deduped `F_c`) and after it (modes, `F_c`, placement, `select`).
    pub(crate) fn build_cross_checked(self) -> Arc<ModeTable> {
        fn checked(
            spec: &CommutSpec,
            phi: &Phi,
            sites: &[Site],
            modes: &[Mode],
            origins: &[(u32, u32)],
        ) -> Vec<bool> {
            let fast = fc_by_pattern(spec, phi, sites, modes, origins);
            let slow = fc_every_pair(spec, phi, sites, modes, origins);
            let k = modes.len();
            for (e, (f, s)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    f,
                    s,
                    "deduped F_c({}, {}): {:?} vs {:?}",
                    e / k,
                    e % k,
                    modes[e / k],
                    modes[e % k]
                );
            }
            fast
        }
        let reference = ModeTableBuilder {
            schema: self.schema.clone(),
            spec: self.spec.clone(),
            phi: self.phi,
            symsets: self.symsets.clone(),
            cap: self.cap,
            partitioning: self.partitioning,
        }
        .build_with(fc_every_pair);
        let t = self.build_with(checked);
        assert_eq!(t.phi, reference.phi);
        assert_eq!(t.modes, reference.modes);
        assert_eq!(t.fc, reference.fc);
        assert_eq!(t.raw_to_canon, reference.raw_to_canon, "select differs");
        assert_eq!(t.part_sizes, reference.part_sizes);
        for (p, q) in t.placement.iter().zip(&reference.placement) {
            assert_eq!(
                (p.part, p.local, &p.local_conflicts, p.conflict_mask, p.free),
                (q.part, q.local, &q.local_conflicts, q.conflict_mask, q.free)
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::set_schema;
    use crate::spec::{ArgRef, Cond};
    use crate::symbolic::SymOp;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn fig3b() -> Arc<CommutSpec> {
        let s = set_schema();
        CommutSpec::builder(s)
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

    fn var_site(schema: &AdtSchema, names: &[(&str, &[SymArg])]) -> SymbolicSet {
        SymbolicSet::new(
            names
                .iter()
                .map(|(n, a)| SymOp::new(schema.method(n), a.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn constant_site_single_mode() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(8));
        let site = b.add_site(var_site(&schema, &[("add", &[SymArg::Star])]));
        let t = b.build_cross_checked();
        assert_eq!(t.mode_count(), 1);
        let m = t.select(site, &[]);
        assert_eq!(m, t.select(site, &[Value(42)]));
        // {add(*)} commutes with itself → free mode, zero partitions needed
        // for blocking but the partition still exists structurally.
        assert!(t.placement(m).free);
    }

    #[test]
    fn variable_site_generates_n_modes() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(4));
        let site = b.add_site(var_site(
            &schema,
            &[("add", &[SymArg::Var(0)]), ("remove", &[SymArg::Var(0)])],
        ));
        let t = b.build_cross_checked();
        // One mode per abstract value; each self-conflicts (add/remove same
        // class) but commutes with the other classes → 4 modes, each its own
        // partition of size 1.
        assert_eq!(t.mode_count(), 4);
        assert_eq!(t.partition_count(), 4);
        for v in 0..16u64 {
            let m = t.select(site, &[Value(v)]);
            assert_eq!(t.mode(m).ops().len(), 2);
            assert!(!t.fc(m, m), "add/remove on same class self-conflicts");
            // Selection is φ-consistent: v+16 ≡ v (mod 4).
            assert_eq!(m, t.select(site, &[Value(v + 16)]));
        }
        // Same abstract class ⇒ same mode.
        assert_eq!(t.select(site, &[Value(1)]), t.select(site, &[Value(5)]));
        assert_ne!(t.select(site, &[Value(1)]), t.select(site, &[Value(2)]));
    }

    #[test]
    fn two_variable_site() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(2));
        let site = b.add_site(var_site(
            &schema,
            &[("add", &[SymArg::Var(0)]), ("remove", &[SymArg::Var(1)])],
        ));
        let t = b.build_cross_checked();
        // 4 raw modes; {add(α0),remove(α1)} and {add(α1),remove(α0)} are NOT
        // indistinguishable from the diagonal ones, but the two diagonal
        // modes (same class) may merge if rows match. Verify selection
        // correctness rather than exact counts.
        let m_01 = t.select(site, &[Value(0), Value(1)]);
        let m_10 = t.select(site, &[Value(1), Value(0)]);
        let m_00 = t.select(site, &[Value(0), Value(0)]);
        let m_11 = t.select(site, &[Value(1), Value(1)]);
        // Diagonal modes self-conflict, off-diagonal self-commute.
        assert!(!t.fc(m_00, m_00));
        assert!(!t.fc(m_11, m_11));
        assert!(t.fc(m_01, m_01));
        assert!(t.fc(m_10, m_10));
        // add(α0)/remove(α0) collide across m_01 and m_10.
        assert!(!t.fc(m_01, m_10));
        // m_00 and m_11 commute (all cross pairs in distinct classes).
        assert!(t.fc(m_00, m_11));
    }

    #[test]
    fn mode_cap_coarsens_phi() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(64)).cap(8);
        let _site = b.add_site(var_site(
            &schema,
            &[("add", &[SymArg::Var(0)]), ("remove", &[SymArg::Var(0)])],
        ));
        let t = b.build_cross_checked();
        assert!(t.mode_count() <= 8, "cap respected: {}", t.mode_count());
        assert!(t.phi().n() <= 8);
    }

    #[test]
    fn indistinguishable_modes_merge() {
        // contains-only site: every contains(αᵢ) commutes with everything
        // the table contains (contains commutes with contains and size) —
        // all rows identical → merged into one free mode.
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(16));
        let site = b.add_site(var_site(&schema, &[("contains", &[SymArg::Var(0)])]));
        let t = b.build_cross_checked();
        assert_eq!(t.mode_count(), 1);
        let m = t.select(site, &[Value(3)]);
        assert!(t.placement(m).free);
    }

    #[test]
    fn compute_if_absent_shape() {
        // The Map pattern of Fig. 21: {containsKey(k), put(k,*)} with φ
        // n=64 yields 64 modes, each conflicting only with itself →
        // 64 singleton partitions ≈ 64-way lock striping.
        let schema = AdtSchema::builder("Map")
            .method("containsKey", 1)
            .method("put", 2)
            .build();
        let spec = CommutSpec::builder(schema.clone())
            .pair("containsKey", "containsKey", crate::spec::Cond::True)
            .differ("containsKey", 0, "put", 0)
            .differ("put", 0, "put", 0)
            .build();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::fib(64));
        let site = b.add_site(var_site(
            &schema,
            &[
                ("containsKey", &[SymArg::Var(0)]),
                ("put", &[SymArg::Var(0), SymArg::Star]),
            ],
        ));
        let t = b.build_cross_checked();
        assert_eq!(t.mode_count(), 64);
        assert_eq!(t.partition_count(), 64);
        for p in t.partition_sizes() {
            assert_eq!(*p, 1);
        }
        let m = t.select(site, &[Value(12345)]);
        assert!(!t.fc(m, m));
        assert_eq!(t.placement(m).local_conflicts, vec![t.placement(m).local]);
    }

    #[test]
    fn shared_symbolic_sets_dedup() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(4));
        let s1 = b.add_site(var_site(&schema, &[("add", &[SymArg::Var(0)])]));
        let s2 = b.add_site(var_site(&schema, &[("add", &[SymArg::Var(0)])]));
        let t = b.build_cross_checked();
        // Both sites map onto the same canonical modes.
        assert_eq!(t.select(s1, &[Value(9)]), t.select(s2, &[Value(9)]));
        // add(αᵢ) commutes with everything here → all merged & free.
        assert_eq!(t.mode_count(), 1);
    }

    #[test]
    fn mode_covers_concrete_ops() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let phi = Phi::modulo(4);
        let mut b = ModeTable::builder(schema.clone(), spec, phi);
        let site = b.add_site(var_site(
            &schema,
            &[("add", &[SymArg::Var(0)]), ("remove", &[SymArg::Var(0)])],
        ));
        let t = b.build_cross_checked();
        let m = t.select(site, &[Value(6)]); // φ(6)=α2
        let add6 = Operation::new(schema.method("add"), vec![Value(6)]);
        let add2 = Operation::new(schema.method("add"), vec![Value(2)]); // also α2
        let add5 = Operation::new(schema.method("add"), vec![Value(5)]); // α1
        let size = Operation::new(schema.method("size"), vec![]);
        assert!(t.mode_covers(m, &add6));
        assert!(t.mode_covers(m, &add2)); // same abstract class is covered
        assert!(!t.mode_covers(m, &add5));
        assert!(!t.mode_covers(m, &size));
    }

    #[test]
    fn lock_all_mode_serializes() {
        let spec = fig3b();
        let schema = spec.schema().clone();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(4));
        let site = b.add_site_all();
        let t = b.build_cross_checked();
        let m = t.select(site, &[]);
        assert!(!t.fc(m, m), "lock(+) conflicts with itself");
        // Covers everything.
        let clear = Operation::new(schema.method("clear"), vec![]);
        assert!(t.mode_covers(m, &clear));
    }

    /// A random specification over `schema`: every method pair gets a
    /// condition mixing argument (in)equalities, constants and
    /// connectives.
    fn random_spec(schema: &Arc<AdtSchema>, rng: &mut SmallRng) -> Arc<CommutSpec> {
        fn arg(rng: &mut SmallRng, arity: usize, left: bool) -> ArgRef {
            match rng.gen_range(0..4u32) {
                0 => ArgRef::Const(Value(rng.gen_range(0..6u64))),
                _ if arity == 0 => ArgRef::Const(Value(rng.gen_range(0..6u64))),
                _ if left => ArgRef::Left(rng.gen_range(0..arity)),
                _ => ArgRef::Right(rng.gen_range(0..arity)),
            }
        }
        fn cond(rng: &mut SmallRng, la: usize, ra: usize, depth: u32) -> Cond {
            let side = |rng: &mut SmallRng| {
                let left = rng.gen_range(0..2u32) == 0;
                arg(rng, if left { la } else { ra }, left)
            };
            // Mostly (in)equalities: the atoms whose outcome depends on
            // which abstract values the modes carry.
            match rng.gen_range(0..if depth == 0 { 8 } else { 11u32 }) {
                0 => Cond::True,
                1 => Cond::False,
                2 => Cond::Eq(side(rng), side(rng)),
                3..=7 => Cond::Ne(side(rng), side(rng)),
                8 => Cond::And((0..2).map(|_| cond(rng, la, ra, depth - 1)).collect()),
                9 => Cond::Or((0..2).map(|_| cond(rng, la, ra, depth - 1)).collect()),
                _ => Cond::Not(Box::new(cond(rng, la, ra, depth - 1))),
            }
        }
        let mut b = CommutSpec::builder(schema.clone());
        for i in 0..schema.method_count() {
            for j in i..schema.method_count() {
                let (la, ra) = (schema.sig(i).arity, schema.sig(j).arity);
                let depth = rng.gen_range(0..3u32);
                let c = cond(rng, la, ra, depth);
                // A self-pair must be symmetric to be a specification.
                let c = if i == j {
                    Cond::And(vec![c.clone(), c.mirrored()])
                } else {
                    c
                };
                b = b.pair(&schema.sig(i).name, &schema.sig(j).name, c);
            }
        }
        b.build()
    }

    /// A random site: one or two operations over variables `v0..v2`,
    /// `*` and small constants.
    fn random_symset(schema: &AdtSchema, rng: &mut SmallRng) -> SymbolicSet {
        let ops = (0..rng.gen_range(1..3usize))
            .map(|_| {
                let m = rng.gen_range(0..schema.method_count());
                let args = (0..schema.sig(m).arity)
                    .map(|_| match rng.gen_range(0..5u32) {
                        0 => SymArg::Star,
                        1 => SymArg::Const(Value(rng.gen_range(0..6u64))),
                        _ => SymArg::Var(rng.gen_range(0..3usize)),
                    })
                    .collect();
                SymOp::new(m, args)
            })
            .collect();
        SymbolicSet::new(ops)
    }

    #[test]
    fn pattern_fc_sees_equal_slots_within_one_operation() {
        // `put(k, v)` commutes with `put(k', v')` iff k ≠ v and k' ≠ v':
        // the entry for {put(α0,α0)} vs {put(α2,α3)} differs from the one
        // for {put(α0,α1)} vs {put(α2,α3)} although neither pair shares a
        // value across the two modes. Only a mode's own slot pattern tells
        // them apart — a comparison within one operation, which random
        // specifications rarely make.
        let schema = AdtSchema::builder("Map").method("put", 2).build();
        let spec = CommutSpec::builder(schema.clone())
            .pair(
                "put",
                "put",
                Cond::And(vec![
                    Cond::Ne(ArgRef::Left(0), ArgRef::Left(1)),
                    Cond::Ne(ArgRef::Right(0), ArgRef::Right(1)),
                ]),
            )
            .build();
        let mut b = ModeTable::builder(schema.clone(), spec, Phi::modulo(4));
        let site = b.add_site(var_site(
            &schema,
            &[("put", &[SymArg::Var(0), SymArg::Var(1)])],
        ));
        let t = b.build_cross_checked();
        let m = |k, v| t.select(site, &[Value(k), Value(v)]);
        assert!(!t.fc(m(0, 0), m(2, 3)));
        assert!(t.fc(m(0, 1), m(2, 3)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Evaluating F_c once per equality pattern builds the same table
        /// as evaluating it on every pair — same modes, F_c, placement
        /// and `select` — on random Set and Map specifications with
        /// constants, random sites, φ kinds and caps.
        #[test]
        fn pattern_fc_matches_every_pair(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let schema = if rng.gen_range(0..2u32) == 0 {
                set_schema()
            } else {
                AdtSchema::builder("Map")
                    .method("get", 1)
                    .method("put", 2)
                    .method("remove", 1)
                    .method("size", 0)
                    .build()
            };
            let spec = random_spec(&schema, &mut rng);
            let n = [1u16, 2, 3, 4, 8][rng.gen_range(0..5usize)];
            let phi = if rng.gen_range(0..2u32) == 0 { Phi::modulo(n) } else { Phi::fib(n) };
            let mut b = ModeTable::builder(schema.clone(), spec, phi);
            if rng.gen_range(0..4u32) == 0 {
                b = b.cap(rng.gen_range(1..40usize));
            }
            for _ in 0..rng.gen_range(1..4usize) {
                b.add_site(random_symset(&schema, &mut rng));
            }
            b.build_cross_checked();
        }
    }
}
