//! Model-based tests: each linearizable ADT must agree with a reference
//! model under arbitrary sequential operation traces, and the
//! commutativity specifications must be *operationally sound*: whenever a
//! spec says two operations commute, executing them in either order from
//! any reachable state yields identical states and responses.

use adts::{MapAdt, MultimapAdt, QueueAdt, SetAdt, WeakMapAdt};
use proptest::prelude::*;
use semlock::symbolic::Operation;
use semlock::value::Value;
use std::collections::{HashMap, HashSet, VecDeque};

#[derive(Debug, Clone)]
enum MapOp {
    Get(u64),
    Put(u64, u64),
    Remove(u64),
    Contains(u64),
    Size,
    Clear,
    Entries,
}

/// Random Map operations on keys `0..keys`.
fn arb_map_op(keys: u64) -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0..keys).prop_map(MapOp::Get),
        (0..keys, 0u64..100).prop_map(|(k, v)| MapOp::Put(k, v)),
        (0..keys).prop_map(MapOp::Remove),
        (0..keys).prop_map(MapOp::Contains),
        Just(MapOp::Size),
        Just(MapOp::Clear),
        Just(MapOp::Entries),
    ]
}

/// What a trace drives, so one checker serves `MapAdt` and the
/// `WeakMapAdt` wrapped around it.
trait TracedMap: Default {
    fn get(&self, k: Value) -> Value;
    fn put(&self, k: Value, v: Value) -> Value;
    fn remove(&self, k: Value) -> Value;
    fn contains_key(&self, k: Value) -> bool;
    fn size(&self) -> usize;
    fn clear(&self);
    /// `None` where the ADT has no snapshot operation.
    fn entries(&self) -> Option<Vec<(Value, Value)>>;
}

macro_rules! traced_map {
    ($adt:ty, $entries:expr) => {
        impl TracedMap for $adt {
            fn get(&self, k: Value) -> Value {
                <$adt>::get(self, k)
            }
            fn put(&self, k: Value, v: Value) -> Value {
                <$adt>::put(self, k, v)
            }
            fn remove(&self, k: Value) -> Value {
                <$adt>::remove(self, k)
            }
            fn contains_key(&self, k: Value) -> bool {
                <$adt>::contains_key(self, k)
            }
            fn size(&self) -> usize {
                <$adt>::size(self)
            }
            fn clear(&self) {
                <$adt>::clear(self)
            }
            fn entries(&self) -> Option<Vec<(Value, Value)>> {
                $entries(self)
            }
        }
    };
}
traced_map!(MapAdt, |m: &MapAdt| Some(m.entries()));
traced_map!(WeakMapAdt, |_| None);

/// Put keys `0..preload`, then run `ops`, checking every response against
/// a `HashMap`.
fn check_map_trace<M: TracedMap>(preload: u64, ops: Vec<MapOp>) -> Result<(), TestCaseError> {
    let map = M::default();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let puts = (0..preload).map(|k| MapOp::Put(k, k + 1));
    for op in puts.chain(ops) {
        match op {
            MapOp::Get(k) => {
                let got = map.get(Value(k));
                let want = model.get(&k).copied().map(Value).unwrap_or(Value::NULL);
                prop_assert_eq!(got, want);
            }
            MapOp::Put(k, v) => {
                let got = map.put(Value(k), Value(v));
                let want = model.insert(k, v).map(Value).unwrap_or(Value::NULL);
                prop_assert_eq!(got, want);
            }
            MapOp::Remove(k) => {
                let got = map.remove(Value(k));
                let want = model.remove(&k).map(Value).unwrap_or(Value::NULL);
                prop_assert_eq!(got, want);
            }
            MapOp::Contains(k) => {
                prop_assert_eq!(map.contains_key(Value(k)), model.contains_key(&k));
            }
            MapOp::Size => prop_assert_eq!(map.size(), model.len()),
            MapOp::Clear => {
                map.clear();
                model.clear();
            }
            MapOp::Entries => {
                if let Some(mut got) = map.entries() {
                    got.sort();
                    let mut want: Vec<_> =
                        model.iter().map(|(&k, &v)| (Value(k), Value(v))).collect();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
    Ok(())
}

/// `MapAdt` turns from one table into stripes on the insert that takes it
/// past this many entries (`PROMOTE_ABOVE` in `adts/src/map.rs`).
const MAP_PROMOTES_ABOVE: u64 = 512;

/// Preloads from just under the promotion size (the trace may or may not
/// cross it, somewhere in its middle) to just over it (the trace runs on
/// stripes from its first operation).
fn arb_preload_near_promotion() -> impl Strategy<Value = u64> {
    MAP_PROMOTES_ABOVE - 4..MAP_PROMOTES_ABOVE + 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Eight keys: the map never leaves its small table.
    #[test]
    fn map_matches_model(ops in proptest::collection::vec(arb_map_op(8), 1..60)) {
        check_map_trace::<MapAdt>(0, ops)?;
    }

    /// Half the keys are new, so the trace's puts take the map past the
    /// promotion size: operations are checked before, across and after it.
    #[test]
    fn map_matches_model_across_promotion(
        preload in arb_preload_near_promotion(),
        ops in proptest::collection::vec(arb_map_op(2 * MAP_PROMOTES_ABOVE), 1..80),
    ) {
        check_map_trace::<MapAdt>(preload, ops)?;
    }

    #[test]
    fn weakmap_matches_model_across_promotion(
        preload in arb_preload_near_promotion(),
        ops in proptest::collection::vec(arb_map_op(2 * MAP_PROMOTES_ABOVE), 1..80),
    ) {
        check_map_trace::<WeakMapAdt>(preload, ops)?;
    }

    #[test]
    fn set_matches_model(ops in proptest::collection::vec((0u8..4, 0u64..8), 1..60)) {
        let set = SetAdt::new();
        let mut model: HashSet<u64> = HashSet::new();
        for (kind, v) in ops {
            match kind {
                0 => {
                    set.add(Value(v));
                    model.insert(v);
                }
                1 => {
                    set.remove(Value(v));
                    model.remove(&v);
                }
                2 => prop_assert_eq!(set.contains(Value(v)), model.contains(&v)),
                _ => prop_assert_eq!(set.size(), model.len()),
            }
        }
    }

    #[test]
    fn queue_matches_model(ops in proptest::collection::vec((0u8..3, 0u64..100), 1..60)) {
        let q = QueueAdt::new();
        let mut model: VecDeque<u64> = VecDeque::new();
        for (kind, v) in ops {
            match kind {
                0 => {
                    q.enqueue(Value(v));
                    model.push_back(v);
                }
                1 => {
                    let got = q.dequeue();
                    let want = model.pop_front().map(Value).unwrap_or(Value::NULL);
                    prop_assert_eq!(got, want);
                }
                _ => prop_assert_eq!(q.size(), model.len()),
            }
        }
    }

    #[test]
    fn multimap_matches_model(ops in proptest::collection::vec((0u8..5, 0u64..5, 0u64..5), 1..60)) {
        let mm = MultimapAdt::new();
        let mut model: HashMap<u64, HashSet<u64>> = HashMap::new();
        for (kind, k, v) in ops {
            match kind {
                0 => {
                    let got = mm.put(Value(k), Value(v));
                    let want = model.entry(k).or_default().insert(v);
                    prop_assert_eq!(got, want);
                }
                1 => {
                    let got = mm.remove(Value(k), Value(v));
                    let want = model.get_mut(&k).map(|s| s.remove(&v)).unwrap_or(false);
                    if model.get(&k).is_some_and(HashSet::is_empty) {
                        model.remove(&k);
                    }
                    prop_assert_eq!(got, want);
                }
                2 => {
                    let mut got = mm.get(Value(k));
                    got.sort();
                    let mut want: Vec<Value> = model
                        .get(&k)
                        .map(|s| s.iter().map(|&v| Value(v)).collect())
                        .unwrap_or_default();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
                3 => prop_assert_eq!(
                    mm.contains_entry(Value(k), Value(v)),
                    model.get(&k).is_some_and(|s| s.contains(&v))
                ),
                _ => prop_assert_eq!(mm.size(), model.values().map(HashSet::len).sum::<usize>()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Operational soundness of the commutativity specifications
// ---------------------------------------------------------------------

/// Apply a Map operation; returns the response.
fn apply_map(map: &MapAdt, op: &Operation) -> Value {
    let schema = adts::schema_of("Map");
    match schema.sig(op.method).name.as_str() {
        "get" => map.get(op.args[0]),
        "put" => map.put(op.args[0], op.args[1]),
        "remove" => map.remove(op.args[0]),
        "containsKey" => Value::from_bool(map.contains_key(op.args[0])),
        "size" => Value(map.size() as u64),
        "clear" => {
            map.clear();
            Value::NULL
        }
        other => unreachable!("{other}"),
    }
}

fn map_from_state(state: &[(u64, u64)]) -> MapAdt {
    let m = MapAdt::new();
    for &(k, v) in state {
        m.put(Value(k), Value(v));
    }
    m
}

fn snapshot(m: &MapAdt) -> Vec<(Value, Value)> {
    let mut e = m.entries();
    e.sort();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// If the Map specification says two operations commute, running them
    /// in either order from a random state yields the same final state
    /// and the same responses — the definition of commutativity in
    /// §2.2.2, checked against the real implementation.
    #[test]
    fn map_spec_operationally_sound(
        state in proptest::collection::vec((0u64..6, 0u64..20), 0..8),
        m1 in 0usize..6,
        m2 in 0usize..6,
        args in proptest::collection::vec(0u64..6, 4),
    ) {
        let schema = adts::schema_of("Map");
        let spec = adts::spec_of("Map");
        let op1 = Operation::new(m1, args.iter().take(schema.sig(m1).arity).map(|&v| Value(v)).collect());
        let op2 = Operation::new(m2, args.iter().rev().take(schema.sig(m2).arity).map(|&v| Value(v)).collect());
        if !spec.commutes(&op1, &op2) {
            return Ok(());
        }
        let a = map_from_state(&state);
        let r1a = apply_map(&a, &op1);
        let r2a = apply_map(&a, &op2);
        let b = map_from_state(&state);
        let r2b = apply_map(&b, &op2);
        let r1b = apply_map(&b, &op1);
        prop_assert_eq!(snapshot(&a), snapshot(&b), "final states differ for {:?} vs {:?}", op1, op2);
        prop_assert_eq!(r1a, r1b, "op1 response differs");
        prop_assert_eq!(r2a, r2b, "op2 response differs");
    }

    /// Same operational soundness for the Set specification (Fig. 3b).
    #[test]
    fn set_spec_operationally_sound(
        state in proptest::collection::vec(0u64..6, 0..8),
        m1 in 0usize..5,
        m2 in 0usize..5,
        args in proptest::collection::vec(0u64..6, 2),
    ) {
        let schema = adts::schema_of("Set");
        let spec = adts::spec_of("Set");
        let op1 = Operation::new(m1, args.iter().take(schema.sig(m1).arity).map(|&v| Value(v)).collect());
        let op2 = Operation::new(m2, args.iter().rev().take(schema.sig(m2).arity).map(|&v| Value(v)).collect());
        if !spec.commutes(&op1, &op2) {
            return Ok(());
        }
        let apply = |set: &SetAdt, op: &Operation| -> Value {
            match schema.sig(op.method).name.as_str() {
                "add" => {
                    set.add(op.args[0]);
                    Value::NULL
                }
                "remove" => {
                    set.remove(op.args[0]);
                    Value::NULL
                }
                "contains" => Value::from_bool(set.contains(op.args[0])),
                "size" => Value(set.size() as u64),
                "clear" => {
                    set.clear();
                    Value::NULL
                }
                other => unreachable!("{other}"),
            }
        };
        let mk = || {
            let s = SetAdt::new();
            for &v in &state {
                s.add(Value(v));
            }
            s
        };
        let a = mk();
        let r1a = apply(&a, &op1);
        let r2a = apply(&a, &op2);
        let b = mk();
        let r2b = apply(&b, &op2);
        let r1b = apply(&b, &op1);
        let mut ea = a.elements();
        let mut eb = b.elements();
        ea.sort();
        eb.sort();
        prop_assert_eq!(ea, eb, "states differ for {:?} vs {:?}", op1, op2);
        prop_assert_eq!(r1a, r1b);
        prop_assert_eq!(r2a, r2b);
    }
}
