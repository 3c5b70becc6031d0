//! Property-based tests for the data-model invariants.

use pg_model::pattern::jaccard;
use pg_model::{
    DataType, Date, DateTime, Edge, EdgeId, FnvHasher, LabelSet, Node, NodeId, PropMap,
    PropertyGraph, PropertyValue, Symbol,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

fn arb_labelset() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec("[A-Z][a-z]{0,6}", 0..5).prop_map(LabelSet::from_iter)
}

fn arb_keyset() -> impl Strategy<Value = BTreeSet<Symbol>> {
    prop::collection::btree_set("[a-z]{1,6}", 0..8)
        .prop_map(|s| s.into_iter().map(|k| pg_model::sym(&k)).collect())
}

/// The `BTreeMap` a [`PropMap`] replaced — its model.
type ModelMap = BTreeMap<Symbol, PropertyValue>;

/// A six-key universe, so sequences revisit keys.
fn key(i: u8) -> Symbol {
    pg_model::sym(["a", "b", "c", "k", "x", "zz"][i as usize % 6])
}

fn entries(raw: &[(u8, i64)]) -> Vec<(Symbol, PropertyValue)> {
    raw.iter()
        .map(|&(k, v)| (key(k), PropertyValue::Int(v)))
        .collect()
}

fn assert_same_map(map: &PropMap, model: &ModelMap) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.len(), model.len());
    prop_assert_eq!(map.is_empty(), model.is_empty());
    prop_assert!(map.iter().eq(model.iter()), "{map:?} vs {model:?}");
    prop_assert!(map.keys().eq(model.keys()));
    prop_assert!(map.values().eq(model.values()));
    prop_assert_eq!(format!("{map:?}"), format!("{model:?}"));
    prop_assert_eq!(map.to_value(), model.to_value());
    Ok(())
}

/// Sorted ids of `node`'s outgoing and incoming edges, by scanning the
/// edge list: the oracle the adjacency lists are held to.
fn incident_by_scan(g: &PropertyGraph, node: NodeId) -> (Vec<u64>, Vec<u64>) {
    let ids = |pick: fn(&Edge) -> NodeId| {
        let mut ids: Vec<u64> = g
            .edges()
            .filter(|e| pick(e) == node)
            .map(|e| e.id.0)
            .collect();
        ids.sort_unstable();
        ids
    };
    (ids(|e| e.src), ids(|e| e.tgt))
}

fn assert_adjacency_matches_scan(g: &PropertyGraph, nodes: u64) -> Result<(), TestCaseError> {
    for n in (0..nodes).map(NodeId) {
        let (out, inc) = incident_by_scan(g, n);
        let sorted = |it: &mut dyn Iterator<Item = &Edge>| {
            let mut ids: Vec<u64> = it.map(|e| e.id.0).collect();
            ids.sort_unstable();
            ids
        };
        prop_assert_eq!(sorted(&mut g.out_edges(n)), out.clone(), "out of {}", n.0);
        prop_assert_eq!(sorted(&mut g.in_edges(n)), inc.clone(), "in of {}", n.0);
    }
    Ok(())
}

proptest! {
    // --- PropMap behaves as the BTreeMap it replaced.
    #[test]
    fn propmap_matches_btreemap_model(
        ops in prop::collection::vec((0u8..5, 0u8..6, any::<i64>()), 0..40)
    ) {
        let mut map = PropMap::new();
        let mut model = ModelMap::new();
        for (op, k, v) in ops {
            let k = key(k);
            match op {
                0 | 1 => prop_assert_eq!(
                    map.insert(k.clone(), PropertyValue::Int(v)),
                    model.insert(k, PropertyValue::Int(v))
                ),
                2 => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                3 => {
                    prop_assert_eq!(map.get(&k), model.get(&k));
                    prop_assert_eq!(map.get(&*k), model.get(&*k));
                    prop_assert_eq!(map.contains_key(&*k), model.contains_key(&*k));
                }
                _ => {
                    // Visits in key order, like the model: the n-th
                    // visited entry decides by the same bit of `v`.
                    let (mut i, mut j) = (0u32, 0u32);
                    map.retain(|_, _| { i += 1; (v >> (i % 8)) & 1 == 0 });
                    model.retain(|_, _| { j += 1; (v >> (j % 8)) & 1 == 0 });
                }
            }
            assert_same_map(&map, &model)?;
        }
        prop_assert!(map.clone().into_iter().eq(model.clone()));
    }

    // --- Unsorted arrival with repeated keys: last wins, in every way a
    //     map is built or read off the wire.
    #[test]
    fn propmap_collects_and_deserializes_like_btreemap(
        raw in prop::collection::vec((0u8..6, any::<i64>()), 0..12)
    ) {
        let map: PropMap = entries(&raw).into_iter().collect();
        let model: ModelMap = entries(&raw).into_iter().collect();
        assert_same_map(&map, &model)?;

        // Object form (what writers emit) round-trips.
        let object = map.to_value();
        prop_assert_eq!(PropMap::from_value(&object).unwrap(), map.clone());
        // Pair-array form, in arrival order with the repeats.
        let pairs = Value::Array(
            entries(&raw)
                .iter()
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        );
        prop_assert_eq!(PropMap::from_value(&pairs).unwrap(), map.clone());
        assert_same_map(&map, &ModelMap::from_value(&pairs).unwrap())?;
        // Through JSON text as well.
        let text = serde_json::to_string(&map).unwrap();
        prop_assert_eq!(&text, &serde_json::to_string(&model).unwrap());
        prop_assert_eq!(serde_json::from_str::<PropMap>(&text).unwrap(), map);
    }

    #[test]
    fn propmap_rejects_what_the_model_rejects(pick in 0usize..5) {
        let bad = [
            Value::Null,
            Value::Str("x".into()),
            Value::Array(vec![Value::Array(vec![Value::Str("k".into())])]),
            Value::Array(vec![Value::Array(vec![Value::U64(1), Value::Null])]),
            Value::Object(vec![("k".into(), Value::U64(1))]),
        ];
        prop_assert!(PropMap::from_value(&bad[pick]).is_err());
        prop_assert!(ModelMap::from_value(&bad[pick]).is_err());
    }

    // --- Adjacency on demand: whenever it is first asked for, and
    //     whatever edges were added before or after, it agrees with a
    //     scan of the edge list.
    #[test]
    fn lazy_adjacency_matches_an_edge_scan(
        ops in prop::collection::vec((0u64..6, 0u64..6), 0..40)
    ) {
        const NODES: u64 = 6;
        // `warm` is queried after every step (built, then extended);
        // `cold` is never queried, only a throw-away clone of it is.
        let mut warm = PropertyGraph::new();
        for n in 0..NODES {
            warm.add_node(Node::new(n, LabelSet::empty())).unwrap();
        }
        let mut cold = warm.clone();
        assert_adjacency_matches_scan(&warm, NODES)?;
        let mut next_edge = 0u64;
        for (a, b) in ops {
            let edge = Edge::new(next_edge, NodeId(a), NodeId(b), LabelSet::empty());
            next_edge += 1;
            prop_assert_eq!(warm.add_edge(edge.clone()), cold.add_edge(edge));
            prop_assert_eq!(warm.edge_count(), cold.edge_count());
            for e in warm.edges() {
                prop_assert_eq!(warm.edge(e.id), Some(e), "position map of warm");
                prop_assert!(cold.edge(e.id).is_some(), "position map of cold");
            }
            assert_adjacency_matches_scan(&warm, NODES)?;
            assert_adjacency_matches_scan(&cold.clone(), NODES)?;
        }
        assert_adjacency_matches_scan(&cold, NODES)?;
        prop_assert!(warm.edge(EdgeId(next_edge)).is_none());
    }

    // --- A shared label set hashes and orders as the label vector it
    //     used to be, so no map order or keyed digest moved.
    #[test]
    fn labelset_hashes_and_orders_as_its_label_vector(
        a in prop::collection::vec("[A-C][a-b]{0,2}", 0..4),
        b in prop::collection::vec("[A-C][a-b]{0,2}", 0..4),
    ) {
        let vector = |labels: &[String]| -> Vec<Symbol> {
            labels.iter().map(|l| pg_model::sym(l)).collect()
        };
        let fnv = |value: &dyn Fn(&mut FnvHasher)| {
            let mut h = FnvHasher::default();
            value(&mut h);
            h.finish()
        };
        let (va, vb) = (vector(&a), vector(&b));
        let (sa, sb) = (LabelSet::from_wire(va.clone()), LabelSet::from_wire(vb.clone()));
        prop_assert_eq!(fnv(&|h| sa.hash(h)), fnv(&|h| va.hash(h)));
        prop_assert_eq!(sa.cmp(&sb), va.cmp(&vb));
        prop_assert_eq!(sa == sb, va == vb);
        prop_assert_eq!(sa.to_value(), va.to_value());
        prop_assert_eq!(LabelSet::from_value(&va.to_value()).unwrap(), sa);
    }

    // --- LabelSet is a lattice under union.
    #[test]
    fn labelset_union_is_commutative_associative_idempotent(
        a in arb_labelset(), b in arb_labelset(), c in arb_labelset()
    ) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        // Union upper-bounds both operands.
        prop_assert!(a.is_subset_of(&a.union(&b)));
        prop_assert!(b.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn labelset_canonical_token_is_order_insensitive(
        mut labels in prop::collection::vec("[A-Z][a-z]{0,6}", 1..5)
    ) {
        let a = LabelSet::from_iter(labels.clone());
        labels.reverse();
        let b = LabelSet::from_iter(labels);
        prop_assert_eq!(a.canonical_token(), b.canonical_token());
    }

    #[test]
    fn labelset_subset_iff_union_absorbs(a in arb_labelset(), b in arb_labelset()) {
        prop_assert_eq!(a.is_subset_of(&b), a.union(&b) == b);
    }

    // --- Jaccard similarity is a proper similarity.
    #[test]
    fn jaccard_bounds_and_symmetry(a in arb_keyset(), b in arb_keyset()) {
        let j = jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert_eq!(j, jaccard(&b, &a));
        prop_assert_eq!(jaccard(&a, &a), 1.0);
    }

    // --- Data-type lattice.
    #[test]
    fn datatype_join_is_an_upper_bound(raw_a in ".*", raw_b in ".*") {
        let ta = DataType::of(&PropertyValue::infer(&raw_a));
        let tb = DataType::of(&PropertyValue::infer(&raw_b));
        let j = ta.join(tb);
        prop_assert_eq!(j.join(ta), j);
        prop_assert_eq!(j.join(tb), j);
        // The joined type admits both original values.
        prop_assert!(j.admits(&PropertyValue::infer(&raw_a)));
        prop_assert!(j.admits(&PropertyValue::infer(&raw_b)));
    }

    // --- Value rendering round-trips through inference.
    #[test]
    fn int_values_round_trip(v in any::<i64>()) {
        let pv = PropertyValue::Int(v);
        prop_assert_eq!(PropertyValue::infer(&pv.render()), pv);
    }

    #[test]
    fn date_round_trips(y in 1000i32..3000, m in 1u8..=12, d in 1u8..=28) {
        let date = Date::new(y, m, d).unwrap();
        prop_assert_eq!(Date::parse(&date.to_string()), Some(date));
        let pv = PropertyValue::Date(date);
        prop_assert_eq!(PropertyValue::infer(&pv.render()), pv);
    }

    #[test]
    fn datetime_round_trips(
        y in 1000i32..3000, m in 1u8..=12, d in 1u8..=28,
        h in 0u8..24, min in 0u8..60, s in 0u8..60
    ) {
        let dt = DateTime::new(Date::new(y, m, d).unwrap(), h, min, s).unwrap();
        prop_assert_eq!(DateTime::parse(&dt.to_string()), Some(dt));
    }

    // --- Inference never panics on arbitrary input.
    #[test]
    fn inference_is_total(raw in ".*") {
        let _ = PropertyValue::infer(&raw);
    }

    // --- total_cmp is a total order (antisymmetric + transitive on a
    //     sample).
    #[test]
    fn value_ordering_is_consistent(a in any::<i64>(), b in any::<i64>()) {
        let (va, vb) = (PropertyValue::Int(a), PropertyValue::Int(b));
        prop_assert_eq!(va.total_cmp(&vb), vb.total_cmp(&va).reverse());
    }
}

/// FNV-1a digest of `{Person, Student}`'s `Hash` output, recorded at the
/// commit where `LabelSet` still wrapped a `Vec<Symbol>`: the shared
/// representation must feed a hasher the same bytes.
#[test]
fn labelset_hash_digest_is_the_vec_era_one() {
    let mut h = FnvHasher::default();
    LabelSet::from_iter(["Student", "Person"]).hash(&mut h);
    assert_eq!(h.finish(), 16_990_667_021_273_082_395);
}
