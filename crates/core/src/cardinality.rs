//! Edge cardinality inference (§4.4, "Cardinalities").
//!
//! For every edge type ρ, compute the maximum number of distinct targets
//! per source (`max_out`) and distinct sources per target (`max_in`) over
//! the type's observed instances, and classify: `(1,1) → 0:1`,
//! `(>1,1) → N:1`, `(1,>1) → 0:N`, `(>1,>1) → M:N`. These are sound upper
//! bounds (§4.7); the exact lower bound would require scanning nodes
//! without edges, which the paper defers.

use crate::state::{DiscoveryState, Membership};
use pg_model::{Cardinality, NodeId, TypeId};
use std::collections::{HashMap, HashSet};

/// Compute and store cardinalities for every edge type: the bounds
/// observed from the accumulated endpoint pairs, max-merged with the
/// accumulator's folded floor (a foreign schema's declared cardinality
/// whose endpoints are not available locally — see
/// `TypeAccum::card_floor`). Types with neither endpoints nor a
/// floor are left untouched.
pub fn compute_cardinalities(state: &mut DiscoveryState) {
    compute_cardinalities_cached(state, &mut CardCache::default());
}

/// Incremental degree bookkeeping for one edge type: the distinct
/// endpoint pairs seen so far, per-node distinct-neighbor counts, and
/// the running maxima — exactly the quantities [`max_degrees`] derives
/// from a full scan, maintained pair by pair instead.
///
/// The running maxima equal the full-scan maxima because degree counts
/// only ever grow: deduplicating through `seen` makes each count "the
/// number of distinct neighbors", and the maximum of a set of
/// monotonically growing counters is the final maximum.
#[derive(Debug, Default, Clone)]
struct TypeDegrees {
    /// How many of the accumulator's endpoint pairs are folded in.
    watermark: usize,
    seen: HashSet<(NodeId, NodeId)>,
    out_count: HashMap<NodeId, u64>,
    in_count: HashMap<NodeId, u64>,
    max_out: u64,
    max_in: u64,
}

impl TypeDegrees {
    fn fold(&mut self, pairs: &[(NodeId, NodeId)]) {
        for &(s, t) in pairs {
            if !self.seen.insert((s, t)) {
                continue;
            }
            let out = self.out_count.entry(s).or_insert(0);
            *out += 1;
            self.max_out = self.max_out.max(*out);
            let inc = self.in_count.entry(t).or_insert(0);
            *inc += 1;
            self.max_in = self.max_in.max(*inc);
        }
    }
}

/// Cross-batch cardinality cache for an incremental session.
///
/// Endpoint lists in [`crate::state::EdgeTypeAccum`] are append-only
/// under batch ingest (`observe` pushes, `merge` extends), so the cache
/// folds in only the pairs past its per-type watermark on each
/// post-processing pass — O(new edges) per batch instead of a full
/// O(all edges) rescan. Any operation that may rebuild or rekey the
/// accumulators (a state fold / distributed merge, a restore) must
/// [`CardCache::invalidate`] the cache; the next pass then rebuilds it
/// with one full scan and is bit-identical to the uncached path.
#[derive(Debug, Default)]
pub struct CardCache {
    per_type: HashMap<TypeId, TypeDegrees>,
}

impl CardCache {
    /// Drop all cached degree state: the next computation rescans every
    /// endpoint list from scratch. Required after any mutation of the
    /// accumulators that is not append-only (merges, restores).
    pub fn invalidate(&mut self) {
        self.per_type.clear();
    }
}

/// [`compute_cardinalities`], incrementally: only endpoint pairs the
/// cache has not folded in yet are scanned. With an empty (or
/// invalidated) cache this degenerates to exactly the full scan.
///
/// Memory bound: in batch/incremental mode the cache's `seen` set and
/// degree maps are bounded by the number of **distinct** endpoint pairs
/// and nodes of the graph, not the instance stream — still O(graph),
/// which is why streaming sessions must not use it. A sketched
/// accumulator (streaming mode) takes the KMV estimation branch
/// instead: nothing is inserted into the cache, so server sessions in
/// stream mode hold no per-endpoint state at all.
pub fn compute_cardinalities_cached(state: &mut DiscoveryState, cache: &mut CardCache) {
    for t in &mut state.schema.edge_types {
        let Some(acc) = state.edge_accums.get(&t.id) else {
            continue;
        };
        let observed = match &acc.membership {
            Membership::Sketched(sk) => sk.ends.cardinality_estimate(),
            Membership::Exact { endpoints, .. } if endpoints.is_empty() => None,
            Membership::Exact { endpoints, .. } => {
                let deg = cache.per_type.entry(t.id).or_default();
                if deg.watermark > endpoints.len() {
                    // The endpoint list shrank: the accumulator was rebuilt
                    // behind our back. Resync defensively with a full scan.
                    *deg = TypeDegrees::default();
                }
                deg.fold(&endpoints[deg.watermark..]);
                deg.watermark = endpoints.len();
                Some(Cardinality {
                    max_out: deg.max_out,
                    max_in: deg.max_in,
                })
            }
        };
        match (observed, acc.card_floor) {
            (Some(o), Some(f)) => t.cardinality = Some(o.merge(&f)),
            (Some(o), None) => t.cardinality = Some(o),
            (None, Some(f)) => t.cardinality = Some(f),
            (None, None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::EdgeCluster;
    use crate::extract::integrate;
    use crate::state::EdgeTypeAccum;
    use pg_model::{CardinalityClass, Edge, LabelSet, NodeId};

    fn edge_cluster(label: &str, pairs: &[(u64, u64)]) -> EdgeCluster {
        let mut accum = EdgeTypeAccum::default();
        for (i, &(s, t)) in pairs.iter().enumerate() {
            accum.observe(&Edge::new(
                10_000 + i as u64,
                NodeId(s),
                NodeId(t),
                LabelSet::single(label),
            ));
        }
        EdgeCluster {
            labels: LabelSet::single(label),
            keys: Default::default(),
            src_labels: LabelSet::single("Person"),
            tgt_labels: LabelSet::single("Org"),
            accum,
        }
    }

    fn endpoints_mut(state: &mut DiscoveryState, id: TypeId) -> &mut Vec<(NodeId, NodeId)> {
        match &mut state.edge_accums.get_mut(&id).unwrap().membership {
            Membership::Exact { endpoints, .. } => endpoints,
            Membership::Sketched(_) => panic!("test accumulators are exact"),
        }
    }

    #[test]
    fn works_at_example_is_n_to_1() {
        // Example 8: many people → one org each; orgs have many employees.
        let mut state = DiscoveryState::new();
        integrate(
            &mut state,
            vec![edge_cluster("WORKS_AT", &[(1, 100), (2, 100), (3, 100)])],
            Default::default(),
        );
        compute_cardinalities(&mut state);
        let t = &state.schema.edge_types[0];
        let c = t.cardinality.unwrap();
        assert_eq!(c.max_out, 1);
        assert_eq!(c.max_in, 3);
        assert_eq!(c.class(), CardinalityClass::OneToMany);
    }

    #[test]
    fn knows_example_is_m_to_n() {
        let mut state = DiscoveryState::new();
        integrate(
            &mut state,
            vec![edge_cluster("KNOWS", &[(1, 2), (1, 3), (2, 1), (3, 1)])],
            Default::default(),
        );
        compute_cardinalities(&mut state);
        let c = state.schema.edge_types[0].cardinality.unwrap();
        assert_eq!(c.class(), CardinalityClass::ManyToMany);
    }

    #[test]
    fn upper_bound_soundness() {
        // §4.7: the recorded maxima are achieved by some instance.
        let pairs = [(1, 2), (1, 3), (1, 4), (5, 2)];
        let mut state = DiscoveryState::new();
        integrate(
            &mut state,
            vec![edge_cluster("E", &pairs)],
            Default::default(),
        );
        compute_cardinalities(&mut state);
        let c = state.schema.edge_types[0].cardinality.unwrap();
        assert_eq!(c.max_out, 3, "node 1 has 3 distinct targets");
        assert_eq!(c.max_in, 2, "node 2 has 2 distinct sources");
    }

    #[test]
    fn folded_floor_survives_and_max_merges_with_observations() {
        use pg_model::Cardinality;
        let mut state = DiscoveryState::new();
        integrate(
            &mut state,
            vec![edge_cluster("E", &[(1, 2)])],
            Default::default(),
        );
        let id = state.schema.edge_types[0].id;
        // A foreign shard claimed (3, 1) without shipping endpoints.
        state.edge_accums.get_mut(&id).unwrap().card_floor = Some(Cardinality {
            max_out: 3,
            max_in: 1,
        });
        compute_cardinalities(&mut state);
        let c = state.schema.edge_types[0].cardinality.unwrap();
        assert_eq!((c.max_out, c.max_in), (3, 1), "floor dominates (1,1)");

        // Only a floor, no endpoints at all.
        let mut floor_only = DiscoveryState::new();
        integrate(
            &mut floor_only,
            vec![edge_cluster("F", &[])],
            Default::default(),
        );
        let fid = floor_only.schema.edge_types[0].id;
        floor_only.edge_accums.get_mut(&fid).unwrap().card_floor = Some(Cardinality {
            max_out: 2,
            max_in: 5,
        });
        compute_cardinalities(&mut floor_only);
        assert_eq!(
            floor_only.schema.edge_types[0].cardinality,
            Some(Cardinality {
                max_out: 2,
                max_in: 5
            })
        );
    }

    /// The cached incremental path must agree with [`max_degrees`]'
    /// full scan for any append sequence, including duplicate pairs and
    /// re-observations across batches.
    #[test]
    fn cached_degrees_match_full_scan_across_appends() {
        use pg_store::query::max_degrees;
        // A deterministic pseudo-random pair stream with heavy reuse so
        // duplicates, fan-out, and fan-in all occur.
        let mut x = 0x2545f4914f6cdd1du64;
        let mut pairs = Vec::new();
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pairs.push((NodeId(x % 23), NodeId((x >> 32) % 17)));
        }
        let mut state = DiscoveryState::new();
        integrate(&mut state, vec![edge_cluster("E", &[])], Default::default());
        let id = state.schema.edge_types[0].id;
        let mut cache = CardCache::default();
        // Feed the stream in uneven increments; after every batch the
        // cached bounds must equal a from-scratch full scan.
        for (i, chunk) in pairs.chunks(37).enumerate() {
            endpoints_mut(&mut state, id).extend(chunk.iter().copied());
            compute_cardinalities_cached(&mut state, &mut cache);
            let cached = state.schema.edge_types[0].cardinality.unwrap();
            let full = max_degrees(state.edge_accums[&id].endpoints().iter().copied());
            assert_eq!(cached, full, "divergence after chunk {i}");
        }
        // Invalidation rebuilds to the same answer.
        cache.invalidate();
        compute_cardinalities_cached(&mut state, &mut cache);
        assert_eq!(
            state.schema.edge_types[0].cardinality.unwrap(),
            max_degrees(state.edge_accums[&id].endpoints().iter().copied()),
        );
    }

    /// A rebuilt (shrunk) endpoint list must not panic or leave stale
    /// maxima behind: the stale cache entry resyncs with a full scan.
    #[test]
    fn shrunken_endpoint_list_resyncs_the_cache() {
        let mut state = DiscoveryState::new();
        integrate(
            &mut state,
            vec![edge_cluster("E", &[(1, 2), (1, 3), (1, 4)])],
            Default::default(),
        );
        let id = state.schema.edge_types[0].id;
        let mut cache = CardCache::default();
        compute_cardinalities_cached(&mut state, &mut cache);
        assert_eq!(state.schema.edge_types[0].cardinality.unwrap().max_out, 3);
        // Simulate an accumulator rebuilt by a merge the cache never
        // heard about.
        *endpoints_mut(&mut state, id) = vec![(NodeId(9), NodeId(8))];
        compute_cardinalities_cached(&mut state, &mut cache);
        let c = state.schema.edge_types[0].cardinality.unwrap();
        assert_eq!((c.max_out, c.max_in), (1, 1));
    }

    #[test]
    fn incremental_merge_grows_bounds() {
        let mut state = DiscoveryState::new();
        integrate(
            &mut state,
            vec![edge_cluster("E", &[(1, 2)])],
            Default::default(),
        );
        compute_cardinalities(&mut state);
        assert_eq!(
            state.schema.edge_types[0].cardinality.unwrap().class(),
            CardinalityClass::OneToOne
        );
        // Second batch adds fan-out for the same type.
        integrate(
            &mut state,
            vec![edge_cluster("E", &[(1, 3), (1, 4)])],
            Default::default(),
        );
        compute_cardinalities(&mut state);
        let c = state.schema.edge_types[0].cardinality.unwrap();
        assert_eq!(c.max_out, 3, "endpoints accumulate across batches");
    }
}
