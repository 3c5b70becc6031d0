//! The test oracle for `pg_hive::extract::integrate`: Algorithm 2 as it
//! ran before the per-call type index, kept verbatim — every cluster
//! scans every type, an unlabeled cluster rebuilds each type's key set
//! to take its Jaccard, and `place` finds its target by id with another
//! scan. The shipped `integrate` must return the same assignment and
//! leave the same state (`equivalence.rs`); `crates/bench` includes this
//! file for the baseline of `benches/merge_ablation.rs`.
#![allow(dead_code)]

use pg_hive::cluster::NodeCluster;
use pg_hive::extract::{integrate, weighted_jaccard, Cluster, MergeOptions};
use pg_hive::state::{Accums, DiscoveryState, Kind, SketchParams};
use pg_hive::MergeSimilarity;
use pg_model::pattern::jaccard;
use pg_model::{LabelSet, Node, SchemaType, TypeId};

/// Reference counterpart of `pg_hive::extract::integrate`.
pub fn naive_integrate<C: Cluster>(
    state: &mut DiscoveryState,
    clusters: Vec<C>,
    opts: MergeOptions,
) -> Vec<TypeId> {
    let mut assigned = vec![TypeId(0); clusters.len()];
    let (labeled, unlabeled): (Vec<_>, Vec<_>) = clusters
        .into_iter()
        .enumerate()
        .partition(|(_, c)| !c.parts().0.is_empty());
    for (idx, cluster) in labeled.into_iter().chain(unlabeled) {
        let (types, accums) = C::Kind::view(state);
        let target = if cluster.parts().0.is_empty() {
            best_candidate(types, accums, &cluster, false, opts)
                .or_else(|| best_candidate(types, accums, &cluster, true, opts))
        } else {
            types
                .iter()
                .find(|t| cluster.same_key(t, opts.edge_endpoint_aware))
                .map(|t| t.id())
        };
        assigned[idx] = place(state, target, &cluster, opts.stream);
    }
    assigned
}

fn best_candidate<C: Cluster>(
    types: &[<C::Kind as Kind>::Type],
    accums: &Accums<C::Kind>,
    cluster: &C,
    want_abstract: bool,
    opts: MergeOptions,
) -> Option<TypeId> {
    let (_, keys, accum) = cluster.parts();
    let mut best: Option<(f64, TypeId)> = None;
    for t in types.iter().filter(|t| t.is_abstract() == want_abstract) {
        let weigh_against = match opts.similarity {
            MergeSimilarity::WeightedJaccard => accums.get(&t.id()),
            MergeSimilarity::BinaryJaccard => None,
        };
        let sim = match weigh_against {
            Some(acc) => {
                weighted_jaccard(&accum.key_present, accum.count, &acc.key_present, acc.count)
            }
            None => jaccard(keys, &t.properties().keys().cloned().collect()),
        };
        let better = match best {
            None => true,
            Some((bs, bid)) => sim > bs || (sim == bs && t.id() < bid),
        };
        if sim >= opts.theta && better {
            best = Some((sim, t.id()));
        }
    }
    best.map(|(_, id)| id)
}

fn place<C: Cluster>(
    state: &mut DiscoveryState,
    target: Option<TypeId>,
    cluster: &C,
    stream: Option<SketchParams>,
) -> TypeId {
    let incoming = cluster.to_type();
    let id = match target {
        Some(id) => {
            let t = C::Kind::split(state).0.iter_mut().find(|t| t.id() == id);
            t.expect("type id from this schema").absorb(&incoming);
            id
        }
        None => C::Kind::push(&mut state.schema, incoming),
    };
    let entry = C::Kind::split(state).1.entry(id).or_default();
    if let Some(params) = stream {
        entry.ensure_sketched(params);
    }
    entry.merge(cluster.parts().2);
    id
}

// The input both implementations are timed on — by the cost guard in
// `equivalence.rs` and the `integrate_scaling` criterion group.

/// Node cluster `i` of the scaling input: unlabeled when `i % 10 < 3`,
/// else labeled `L<i>`; 4–12 keys out of 64, a function of `i` alone, so
/// cluster `i` of a batch has the key set of type `i` of the state.
fn scaling_cluster(i: u64, id: u64) -> NodeCluster {
    let labels = if i % 10 < 3 {
        LabelSet::empty()
    } else {
        LabelSet::single(&format!("L{i}"))
    };
    let mut node = Node::new(id, labels.clone());
    for j in 0..4 + i % 9 {
        node = node.with_prop(&format!("p{}", (i * 7 + j * j) % 64), 1i64);
    }
    let mut cluster = NodeCluster {
        labels,
        keys: node.props.keys().cloned().collect(),
        ..NodeCluster::default()
    };
    cluster.accum.observe(&node);
    cluster
}

/// A state of `n_types` node types (70 % labeled, 30 % ABSTRACT — θ = 2
/// keeps every unlabeled cluster a type of its own) and a batch of 500
/// clusters to integrate into it: 30 % unlabeled, a fifth of all
/// clusters unknown to the state.
pub fn scaling_input(n_types: u64) -> (DiscoveryState, Vec<NodeCluster>) {
    let mut state = DiscoveryState::new();
    let apart = MergeOptions {
        theta: 2.0,
        ..MergeOptions::default()
    };
    let types = (0..n_types).map(|i| scaling_cluster(i, i)).collect();
    integrate(&mut state, types, apart);
    let batch = (0..500)
        .map(|b| {
            let i = if b % 5 == 0 {
                n_types + b
            } else {
                b * 13 % n_types
            };
            scaling_cluster(i, n_types + b)
        })
        .collect();
    (state, batch)
}
