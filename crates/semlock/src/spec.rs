//! Commutativity specifications (§5.2, Fig. 3b).
//!
//! For every pair of ADT operations `o, o'` the specification supplies a
//! condition `I_{o,o'}` over their arguments such that, whenever the
//! condition holds, the two operations commute: applying them to the same
//! ADT state in either order yields the same final state and the same
//! responses (§2.2.2).
//!
//! Conditions are boolean combinations of (in)equalities between argument
//! positions of the two operations and constants — exactly the fragment the
//! paper's examples use (`true`, `false`, `v ≠ v'`). The same condition is
//! evaluated in two ways:
//!
//! * **concretely**, over two [`Operation`]s (used by the protocol checker
//!   and by tests of the specification itself), and
//! * **abstractly**, over two locking-mode operations whose arguments range
//!   over abstract values / wildcards — a three-valued *must* analysis used
//!   to compute the commutativity function `F_c` (Fig. 19). The abstract
//!   evaluation lives in [`crate::commut`].

use crate::schema::{AdtSchema, MethodIdx};
use crate::symbolic::Operation;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A reference to an argument of the left operation, the right operation,
/// or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArgRef {
    /// `i`-th argument of the first (left) operation.
    Left(usize),
    /// `i`-th argument of the second (right) operation.
    Right(usize),
    /// A constant value.
    Const(Value),
}

impl ArgRef {
    /// Swap left and right (used to mirror a condition).
    fn mirrored(self) -> ArgRef {
        match self {
            ArgRef::Left(i) => ArgRef::Right(i),
            ArgRef::Right(i) => ArgRef::Left(i),
            c => c,
        }
    }
}

/// A commutativity condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cond {
    /// Always commute (e.g. `add(v)` vs `add(v')` on a Set).
    True,
    /// Never commute (e.g. `add(v)` vs `size()` on a Set).
    False,
    /// The two referenced arguments are equal.
    Eq(ArgRef, ArgRef),
    /// The two referenced arguments differ (e.g. `v ≠ v'`).
    Ne(ArgRef, ArgRef),
    /// Conjunction.
    And(Vec<Cond>),
    /// Disjunction.
    Or(Vec<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// `left.arg(i) ≠ right.arg(j)` — the paper's `v ≠ v'` shorthand.
    pub fn args_differ(i: usize, j: usize) -> Cond {
        Cond::Ne(ArgRef::Left(i), ArgRef::Right(j))
    }

    /// `left.arg(i) == right.arg(j)`.
    pub fn args_equal(i: usize, j: usize) -> Cond {
        Cond::Eq(ArgRef::Left(i), ArgRef::Right(j))
    }

    /// The same condition with the roles of the two operations swapped.
    pub fn mirrored(&self) -> Cond {
        match self {
            Cond::True => Cond::True,
            Cond::False => Cond::False,
            Cond::Eq(a, b) => Cond::Eq(a.mirrored(), b.mirrored()),
            Cond::Ne(a, b) => Cond::Ne(a.mirrored(), b.mirrored()),
            Cond::And(cs) => Cond::And(cs.iter().map(Cond::mirrored).collect()),
            Cond::Or(cs) => Cond::Or(cs.iter().map(Cond::mirrored).collect()),
            Cond::Not(c) => Cond::Not(Box::new(c.mirrored())),
        }
    }

    /// Call `f` on every [`ArgRef::Const`] the condition mentions.
    pub(crate) fn for_each_const(&self, f: &mut impl FnMut(Value)) {
        match self {
            Cond::True | Cond::False => {}
            Cond::Eq(a, b) | Cond::Ne(a, b) => {
                for r in [a, b] {
                    if let ArgRef::Const(c) = r {
                        f(*c);
                    }
                }
            }
            Cond::And(cs) | Cond::Or(cs) => cs.iter().for_each(|c| c.for_each_const(f)),
            Cond::Not(c) => c.for_each_const(f),
        }
    }

    /// Evaluate concretely against two operations' argument vectors.
    pub fn eval(&self, left: &[Value], right: &[Value]) -> bool {
        fn resolve(r: ArgRef, l: &[Value], rr: &[Value]) -> Value {
            match r {
                ArgRef::Left(i) => l[i],
                ArgRef::Right(i) => rr[i],
                ArgRef::Const(c) => c,
            }
        }
        match self {
            Cond::True => true,
            Cond::False => false,
            Cond::Eq(a, b) => resolve(*a, left, right) == resolve(*b, left, right),
            Cond::Ne(a, b) => resolve(*a, left, right) != resolve(*b, left, right),
            Cond::And(cs) => cs.iter().all(|c| c.eval(left, right)),
            Cond::Or(cs) => cs.iter().any(|c| c.eval(left, right)),
            Cond::Not(c) => !c.eval(left, right),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn arg(r: &ArgRef, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match r {
                ArgRef::Left(i) => write!(f, "l{i}"),
                ArgRef::Right(i) => write!(f, "r{i}"),
                ArgRef::Const(c) => write!(f, "{c}"),
            }
        }
        match self {
            Cond::True => write!(f, "true"),
            Cond::False => write!(f, "false"),
            Cond::Eq(a, b) => {
                arg(a, f)?;
                write!(f, "==")?;
                arg(b, f)
            }
            Cond::Ne(a, b) => {
                arg(a, f)?;
                write!(f, "!=")?;
                arg(b, f)
            }
            Cond::And(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Cond::Or(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Cond::Not(c) => write!(f, "!({c})"),
        }
    }
}

/// A commutativity specification for one ADT class: a condition for every
/// (unordered) pair of methods.
#[derive(Debug)]
pub struct CommutSpec {
    schema: Arc<AdtSchema>,
    /// Full (mirrored) matrix indexed `[m1][m2]`: condition under which an
    /// `m1` operation (left) commutes with an `m2` operation (right).
    table: Vec<Vec<Cond>>,
}

impl CommutSpec {
    /// Start building a specification. Unspecified pairs default to the
    /// sound-but-pessimistic `False` ("never commute").
    pub fn builder(schema: Arc<AdtSchema>) -> CommutSpecBuilder {
        let n = schema.method_count();
        CommutSpecBuilder {
            schema,
            table: vec![vec![None; n]; n],
        }
    }

    /// The ADT schema this specification describes.
    pub fn schema(&self) -> &Arc<AdtSchema> {
        &self.schema
    }

    /// The condition under which an `m1` operation (left side) commutes
    /// with an `m2` operation (right side).
    pub fn cond(&self, m1: MethodIdx, m2: MethodIdx) -> &Cond {
        &self.table[m1][m2]
    }

    /// Call `f` on every constant any condition of the specification
    /// mentions.
    pub(crate) fn for_each_const(&self, mut f: impl FnMut(Value)) {
        self.table
            .iter()
            .flatten()
            .for_each(|c| c.for_each_const(&mut f));
    }

    /// Do two concrete operations commute according to this specification?
    ///
    /// Note the condition is *sufficient*: `false` means "not known to
    /// commute", which the locking machinery must treat as a conflict.
    pub fn commutes(&self, a: &Operation, b: &Operation) -> bool {
        self.cond(a.method, b.method).eval(&a.args, &b.args)
    }
}

/// Builder for [`CommutSpec`].
pub struct CommutSpecBuilder {
    schema: Arc<AdtSchema>,
    table: Vec<Vec<Option<Cond>>>,
}

impl CommutSpecBuilder {
    /// Specify the condition under which operations of `m1` and `m2`
    /// commute. The mirrored entry is filled in automatically, so each
    /// unordered pair needs only one call (as in the upper-triangular
    /// Fig. 3b).
    pub fn pair(mut self, m1: &str, m2: &str, cond: Cond) -> Self {
        let i = self.schema.method(m1);
        let j = self.schema.method(m2);
        assert!(
            self.table[i][j].is_none(),
            "pair ({m1},{m2}) specified twice"
        );
        self.table[i][j] = Some(cond.clone());
        if i != j {
            assert!(
                self.table[j][i].is_none(),
                "pair ({m2},{m1}) specified twice"
            );
            self.table[j][i] = Some(cond.mirrored());
        }
        self
    }

    /// Convenience: `m1` and `m2` always commute.
    pub fn always(self, m1: &str, m2: &str) -> Self {
        self.pair(m1, m2, Cond::True)
    }

    /// Convenience: `m1` and `m2` never commute.
    pub fn never(self, m1: &str, m2: &str) -> Self {
        self.pair(m1, m2, Cond::False)
    }

    /// Convenience: `m1(…, vi, …)` and `m2(…, vj, …)` commute when the two
    /// arguments differ (the `v ≠ v'` pattern of Fig. 3b).
    pub fn differ(self, m1: &str, i: usize, m2: &str, j: usize) -> Self {
        self.pair(m1, m2, Cond::args_differ(i, j))
    }

    /// Finish, defaulting unspecified pairs to `False`.
    pub fn build(self) -> Arc<CommutSpec> {
        let table = self
            .table
            .into_iter()
            .map(|row| row.into_iter().map(|c| c.unwrap_or(Cond::False)).collect())
            .collect();
        Arc::new(CommutSpec {
            schema: self.schema,
            table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::set_schema;
    use crate::symbolic::Operation;

    /// The exact specification of Fig. 3(b).
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

    fn op(spec: &CommutSpec, name: &str, args: &[u64]) -> Operation {
        Operation::new(
            spec.schema().method(name),
            args.iter().map(|&v| Value(v)).collect(),
        )
    }

    #[test]
    fn example_2_3() {
        // add(7) and remove(7) do not commute; add(7) and remove(10) do.
        let spec = fig3b();
        assert!(!spec.commutes(&op(&spec, "add", &[7]), &op(&spec, "remove", &[7])));
        assert!(spec.commutes(&op(&spec, "add", &[7]), &op(&spec, "remove", &[10])));
    }

    #[test]
    fn fig3b_full_concrete_table() {
        let spec = fig3b();
        // add(v) vs add(v'): always
        assert!(spec.commutes(&op(&spec, "add", &[1]), &op(&spec, "add", &[1])));
        assert!(spec.commutes(&op(&spec, "add", &[1]), &op(&spec, "add", &[2])));
        // add vs contains: v != v'
        assert!(!spec.commutes(&op(&spec, "add", &[3]), &op(&spec, "contains", &[3])));
        assert!(spec.commutes(&op(&spec, "add", &[3]), &op(&spec, "contains", &[4])));
        // add vs size/clear: never
        assert!(!spec.commutes(&op(&spec, "add", &[3]), &op(&spec, "size", &[])));
        assert!(!spec.commutes(&op(&spec, "add", &[3]), &op(&spec, "clear", &[])));
        // remove vs remove: always
        assert!(spec.commutes(&op(&spec, "remove", &[9]), &op(&spec, "remove", &[9])));
        // contains vs contains / size: always
        assert!(spec.commutes(&op(&spec, "contains", &[1]), &op(&spec, "contains", &[1])));
        assert!(spec.commutes(&op(&spec, "contains", &[1]), &op(&spec, "size", &[])));
        // size vs size: always; clear vs clear: always
        assert!(spec.commutes(&op(&spec, "size", &[]), &op(&spec, "size", &[])));
        assert!(spec.commutes(&op(&spec, "clear", &[]), &op(&spec, "clear", &[])));
        // size vs clear: never
        assert!(!spec.commutes(&op(&spec, "size", &[]), &op(&spec, "clear", &[])));
    }

    #[test]
    fn spec_is_symmetric() {
        let spec = fig3b();
        let names = ["add", "remove", "contains", "size", "clear"];
        for a in names {
            for b in names {
                let (ia, ib) = (spec.schema().method(a), spec.schema().method(b));
                let arity = |m: usize| spec.schema().sig(m).arity;
                for va in 0..3u64 {
                    for vb in 0..3u64 {
                        let oa = Operation::new(ia, (0..arity(ia)).map(|_| Value(va)).collect());
                        let ob = Operation::new(ib, (0..arity(ib)).map(|_| Value(vb)).collect());
                        assert_eq!(
                            spec.commutes(&oa, &ob),
                            spec.commutes(&ob, &oa),
                            "asymmetry for {a}({va}) vs {b}({vb})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_is_never() {
        let s = set_schema();
        let spec = CommutSpec::builder(s).always("add", "add").build();
        assert!(!spec.commutes(&op(&spec, "add", &[1]), &op(&spec, "remove", &[2])));
        assert!(spec.commutes(&op(&spec, "add", &[1]), &op(&spec, "add", &[2])));
    }

    #[test]
    #[should_panic(expected = "specified twice")]
    fn duplicate_pair_panics() {
        let s = set_schema();
        let _ = CommutSpec::builder(s)
            .always("add", "remove")
            .never("remove", "add");
    }

    #[test]
    fn mirrored_condition_swaps_sides() {
        // Condition comparing left arg 0 with a constant should mirror to
        // the right side.
        let c = Cond::Ne(ArgRef::Left(0), ArgRef::Const(Value(5)));
        let m = c.mirrored();
        assert_eq!(m, Cond::Ne(ArgRef::Right(0), ArgRef::Const(Value(5))));
        // eval: left=[5] fails Ne, mirrored with right=[5] fails too.
        assert!(!c.eval(&[Value(5)], &[]));
        assert!(!m.eval(&[], &[Value(5)]));
        assert!(m.eval(&[], &[Value(6)]));
    }

    #[test]
    fn cond_display() {
        let c = Cond::And(vec![
            Cond::args_differ(0, 0),
            Cond::Or(vec![
                Cond::True,
                Cond::Eq(ArgRef::Left(1), ArgRef::Const(Value(3))),
            ]),
        ]);
        assert_eq!(format!("{c}"), "(l0!=r0 && (true || l1==3))");
    }

    #[test]
    fn boolean_connectives() {
        let t = Cond::True;
        let f = Cond::False;
        assert!(Cond::And(vec![t.clone(), t.clone()]).eval(&[], &[]));
        assert!(!Cond::And(vec![t.clone(), f.clone()]).eval(&[], &[]));
        assert!(Cond::Or(vec![f.clone(), t.clone()]).eval(&[], &[]));
        assert!(!Cond::Or(vec![f.clone(), f.clone()]).eval(&[], &[]));
        assert!(Cond::Not(Box::new(f)).eval(&[], &[]));
        assert!(!Cond::Not(Box::new(t)).eval(&[], &[]));
    }
}
