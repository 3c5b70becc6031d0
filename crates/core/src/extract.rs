//! Type extraction and merging — Algorithm 2 (§4.3) and the incremental
//! schema-merge rules (§4.6).
//!
//! The algorithm is written once, as [`integrate`], over the [`Cluster`]
//! trait that node and edge clusters implement. One kind's clusters from
//! the current batch are integrated into the running [`DiscoveryState`]:
//!
//! 1. **Labeled clusters** merge with the existing type carrying exactly
//!    the same merge key — the label set, for edges plus compatible
//!    endpoint label sets — else become new types (Lemmas 1/2 guarantee
//!    the merge is a lossless union).
//! 2. **Unlabeled clusters** merge into the labeled type with the highest
//!    property-set Jaccard similarity, provided it reaches θ (0.9 by
//!    default — high, to avoid over-merging).
//! 3. Remaining unlabeled clusters merge among themselves / with existing
//!    ABSTRACT types by the same criterion, and whatever is left becomes
//!    a new ABSTRACT type (PG-Schema's marker for label-less types).
//!
//! Because every merge is a set union, the schema sequence is a monotone
//! chain: `S_i ⊑ S_{i+1}` (§4.7).

use crate::cluster::{EdgeCluster, NodeCluster};
use crate::config::MergeSimilarity;
use crate::state::{Accums, DiscoveryState, Kind, Record, SketchParams, TypeAccum};
use pg_model::{Edge, EdgeType, LabelSet, Node, NodeType, SchemaType, Symbol, TypeId};
use pg_store::{EdgeRecord, NodeRecord};
use std::collections::{BTreeSet, HashMap};

/// Options for the merge step (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct MergeOptions {
    /// Jaccard threshold θ.
    pub theta: f64,
    /// Binary or frequency-weighted similarity.
    pub similarity: MergeSimilarity,
    /// Edge merge on the full (L, R) key.
    pub edge_endpoint_aware: bool,
    /// Streaming mode: sketch the state-side accumulators at
    /// integration time. Cluster-local accumulators stay exact (they
    /// are batch-bounded); only the long-lived per-type state switches
    /// onto sketches, so integration memory is O(types), not O(records).
    pub stream: Option<SketchParams>,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            theta: 0.9,
            similarity: MergeSimilarity::BinaryJaccard,
            edge_endpoint_aware: true,
            stream: None,
        }
    }
}

impl MergeOptions {
    /// The merge knobs a full pipeline configuration implies — shared by
    /// the incremental session and the distributed shard merge so the
    /// two integration paths can never drift apart.
    pub fn from_config(config: &crate::config::HiveConfig) -> MergeOptions {
        MergeOptions {
            theta: config.theta,
            similarity: config.merge_similarity,
            edge_endpoint_aware: config.edge_endpoint_aware,
            stream: config
                .stream
                .as_ref()
                .map(|s| SketchParams::resolve(s, config.seed)),
        }
    }
}

/// Frequency-weighted Jaccard between two (presence-count, total) maps:
/// `Σ_k min(f_a(k), f_b(k)) / Σ_k max(f_a(k), f_b(k))` with
/// `f(k) = presence(k) / instances`. Two property-less sides are
/// identical (1.0), matching the binary convention.
pub fn weighted_jaccard(
    a_present: &HashMap<Symbol, u64>,
    a_total: u64,
    b_present: &HashMap<Symbol, u64>,
    b_total: u64,
) -> f64 {
    if a_present.is_empty() && b_present.is_empty() {
        return 1.0;
    }
    if a_total == 0 || b_total == 0 {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    let keys: std::collections::BTreeSet<&Symbol> =
        a_present.keys().chain(b_present.keys()).collect();
    for k in keys {
        let fa = *a_present.get(k).unwrap_or(&0) as f64 / a_total as f64;
        let fb = *b_present.get(k).unwrap_or(&0) as f64 / b_total as f64;
        num += fa.min(fb);
        den += fa.max(fb);
    }
    if den == 0.0 {
        1.0
    } else {
        num / den
    }
}

/// A batch's candidate type of either kind, as cluster assembly builds
/// it and Algorithm 2 reads it. [`NodeCluster`] and [`EdgeCluster`]
/// implement it; beyond plain field access they differ in exactly two
/// things, the last two methods.
pub trait Cluster: Default + Send {
    /// Nodes or edges.
    type Kind: Kind;
    /// The loaded records the cluster is assembled from.
    type Record: Record<Kind = Self::Kind>;
    /// Label union, property-key union, and folded statistics.
    fn parts(&self) -> (&LabelSet, &BTreeSet<Symbol>, &TypeAccum<Self::Kind>);
    /// The label union of role `r` of [`Record::role`].
    fn role(&self, r: usize) -> &LabelSet;
    /// Mutable [`Cluster::role`].
    fn role_mut(&mut self, r: usize) -> &mut LabelSet;
    /// The property-key union and the statistics, to fold members into.
    fn stats_mut(&mut self) -> (&mut BTreeSet<Symbol>, &mut TypeAccum<Self::Kind>);
    /// Whether `t` carries this *labeled* cluster's merge key: the label
    /// set for nodes; for edges, with `endpoint_aware` (the default), the
    /// full `(L, R)` of Definition 3.6 — two same-label clusters merge
    /// only if their source and target label sets are also compatible,
    /// so e.g. a `ConnectsTo` between Neurons stays distinct from a
    /// `ConnectsTo` from Segments (the MB6/FIB25 situation: 5 edge types
    /// over 3 labels). With it off, edges merge purely by label, unioning
    /// endpoints per Lemma 2 — the `merge_ablation` benchmark contrasts
    /// the two.
    fn same_key(&self, t: &<Self::Kind as Kind>::Type, endpoint_aware: bool) -> bool;
    /// The cluster as a schema type of its own: ABSTRACT iff unlabeled,
    /// and for edges with the endpoint label sets as the connectivity ρ_s.
    fn to_type(&self) -> <Self::Kind as Kind>::Type;
}

impl Cluster for NodeCluster {
    type Kind = Node;
    type Record = NodeRecord;
    fn parts(&self) -> (&LabelSet, &BTreeSet<Symbol>, &TypeAccum<Node>) {
        (&self.labels, &self.keys, &self.accum)
    }
    fn role(&self, _: usize) -> &LabelSet {
        &self.labels
    }
    fn role_mut(&mut self, _: usize) -> &mut LabelSet {
        &mut self.labels
    }
    fn stats_mut(&mut self) -> (&mut BTreeSet<Symbol>, &mut TypeAccum<Node>) {
        (&mut self.keys, &mut self.accum)
    }
    fn same_key(&self, t: &NodeType, _endpoint_aware: bool) -> bool {
        t.labels == self.labels
    }
    fn to_type(&self) -> NodeType {
        let mut t = NodeType::new(TypeId(0), self.labels.clone(), self.keys.iter().cloned());
        t.is_abstract = self.labels.is_empty();
        t.instance_count = self.accum.count;
        t
    }
}

impl Cluster for EdgeCluster {
    type Kind = Edge;
    type Record = EdgeRecord;
    fn parts(&self) -> (&LabelSet, &BTreeSet<Symbol>, &TypeAccum<Edge>) {
        (&self.labels, &self.keys, &self.accum)
    }
    fn role(&self, r: usize) -> &LabelSet {
        [&self.labels, &self.src_labels, &self.tgt_labels][r]
    }
    fn role_mut(&mut self, r: usize) -> &mut LabelSet {
        match r {
            0 => &mut self.labels,
            1 => &mut self.src_labels,
            2 => &mut self.tgt_labels,
            _ => panic!("an edge has three roles, asked for role {r}"),
        }
    }
    fn stats_mut(&mut self) -> (&mut BTreeSet<Symbol>, &mut TypeAccum<Edge>) {
        (&mut self.keys, &mut self.accum)
    }
    fn same_key(&self, t: &EdgeType, endpoint_aware: bool) -> bool {
        t.labels == self.labels
            && (!endpoint_aware
                || (endpoints_compatible(&t.src_labels, &self.src_labels)
                    && endpoints_compatible(&t.tgt_labels, &self.tgt_labels)))
    }
    fn to_type(&self) -> EdgeType {
        let mut t = EdgeType::new(
            TypeId(0),
            self.labels.clone(),
            self.keys.iter().cloned(),
            self.src_labels.clone(),
            self.tgt_labels.clone(),
        );
        t.is_abstract = self.labels.is_empty();
        t.instance_count = self.accum.count;
        t
    }
}

/// Endpoint label sets are compatible when equal, or when either side is
/// empty — an unlabeled endpoint (missing node labels, cross-batch edge)
/// acts as a wildcard so noise does not fragment edge types. The merge
/// union then fills in the missing side (Lemma 2).
fn endpoints_compatible(a: &LabelSet, b: &LabelSet) -> bool {
    a.is_empty() || b.is_empty() || a == b
}

/// A property-key set as a bitset over a [`TypeIndex`]'s dense key ids:
/// the intersection of two is an AND + popcount per word, no allocation.
#[derive(Debug, Default)]
struct KeySet {
    words: Vec<u64>,
    len: usize,
}

impl KeySet {
    /// `pg_model::pattern::jaccard` of the two sets — the same `inter` /
    /// `union` integers, so the same `f64` — or `None` when the sizes
    /// alone keep it below `theta`. The size filter is exact:
    /// `inter ≤ min` and `union ≥ max`, so `inter/union ≤ min/max` in the
    /// reals, and rounding a quotient to `f64` is monotone, so the
    /// rounded Jaccard is `≤` the rounded size ratio and fails `≥ theta`
    /// whenever that ratio does.
    fn jaccard_reaching(&self, other: &KeySet, theta: f64) -> Option<f64> {
        let (min, max) = (self.len.min(other.len), self.len.max(other.len));
        if max == 0 {
            return Some(1.0);
        }
        if (min as f64 / max as f64) < theta {
            return None;
        }
        let inter: usize = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum();
        Some(inter as f64 / (self.len + other.len - inter) as f64)
    }
}

/// What Algorithm 2 reads of a type while hunting a merge candidate.
#[derive(Debug)]
struct IndexEntry {
    id: TypeId,
    is_abstract: bool,
    keys: KeySet,
}

/// Lookups over one kind's types for the length of one [`integrate`]
/// call, so a cluster costs its plausible candidates and not a scan of
/// every type with a key-set clone each. Built from the state at the top
/// of the call and never stored; [`place`], the only writer of types in
/// between, keeps it current. It rests on three facts: a type's position
/// and id never change; neither does its label set (a cluster is
/// absorbed only by a type with equal labels, or brings none); its key
/// set and ABSTRACT flag may change when it absorbs, so [`place`]
/// re-reads them.
#[derive(Debug, Default)]
struct TypeIndex {
    /// Label set → positions of the types carrying it, ascending.
    by_labels: HashMap<LabelSet, Vec<usize>>,
    /// Type id → position (the first, should a foreign schema repeat an
    /// id).
    by_id: HashMap<TypeId, usize>,
    /// Property key → dense id, in first-seen order within the call.
    key_ids: HashMap<Symbol, u32>,
    /// One entry per type, by position.
    entries: Vec<IndexEntry>,
}

impl TypeIndex {
    fn build<T: SchemaType>(types: &[T]) -> TypeIndex {
        let mut index = TypeIndex::default();
        for (pos, t) in types.iter().enumerate() {
            index.record(pos, t);
        }
        index
    }

    /// Read the type at `pos` (again): the next position is a new type,
    /// an earlier one a type that has just absorbed a cluster.
    fn record<T: SchemaType>(&mut self, pos: usize, t: &T) {
        let entry = IndexEntry {
            id: t.id(),
            is_abstract: t.is_abstract(),
            keys: self.key_set(t.properties().keys()),
        };
        if pos < self.entries.len() {
            self.entries[pos] = entry;
            return;
        }
        let with_labels = self.by_labels.entry(t.labels().clone()).or_default();
        with_labels.push(pos);
        self.by_id.entry(entry.id).or_insert(pos);
        self.entries.push(entry);
    }

    /// `keys` as a bitset, handing unseen keys the next dense ids.
    fn key_set<'a>(&mut self, keys: impl Iterator<Item = &'a Symbol>) -> KeySet {
        let mut set = KeySet::default();
        for key in keys {
            let id = match self.key_ids.get(key) {
                Some(&id) => id,
                None => {
                    let id = self.key_ids.len() as u32;
                    self.key_ids.insert(key.clone(), id);
                    id
                }
            } as usize;
            if set.words.len() <= id / 64 {
                set.words.resize(id / 64 + 1, 0);
            }
            set.words[id / 64] |= 1 << (id % 64);
            set.len += 1;
        }
        set
    }
}

/// Integrate one kind's clusters into the state (Algorithm 2).
///
/// Returns, for each input cluster (same order), the id of the type it
/// merged into or became — what stream mode's value sampling follows.
pub fn integrate<C: Cluster>(
    state: &mut DiscoveryState,
    clusters: Vec<C>,
    opts: MergeOptions,
) -> Vec<TypeId> {
    let mut assigned = vec![TypeId(0); clusters.len()];
    let mut index = TypeIndex::build(C::Kind::view(state).0);
    let (labeled, unlabeled): (Vec<_>, Vec<_>) = clusters
        .into_iter()
        .enumerate()
        .partition(|(_, c)| !c.parts().0.is_empty());
    for (idx, cluster) in labeled.into_iter().chain(unlabeled) {
        let (types, accums) = C::Kind::view(state);
        let (labels, keys, _) = cluster.parts();
        let target = if labels.is_empty() {
            // Lines 8–11: unlabeled clusters vs labeled types by key
            // Jaccard. Lines 12–14: leftovers vs abstract types
            // (existing + earlier leftovers of this very loop), then
            // new ABSTRACT types.
            let key_set = index.key_set(keys.iter());
            best_candidate(&index, accums, &cluster, &key_set, false, opts)
                .or_else(|| best_candidate(&index, accums, &cluster, &key_set, true, opts))
        } else {
            // Lines 2–7: labeled clusters merge by their exact key —
            // the first type with these labels that, for edges, is
            // endpoint-compatible as it stands now.
            index
                .by_labels
                .get(labels)
                .into_iter()
                .flatten()
                .map(|&pos| &types[pos])
                .find(|t| cluster.same_key(t, opts.edge_endpoint_aware))
                .map(|t| t.id())
        };
        assigned[idx] = place(state, &mut index, target, &cluster, opts.stream);
    }
    assigned
}

/// Find the type (labeled or abstract, per `want_abstract`) with the
/// highest key-set Jaccard ≥ θ against the cluster's `keys`. Ties break
/// toward the lower type id for determinism.
fn best_candidate<C: Cluster>(
    index: &TypeIndex,
    accums: &Accums<C::Kind>,
    cluster: &C,
    keys: &KeySet,
    want_abstract: bool,
    opts: MergeOptions,
) -> Option<TypeId> {
    let accum = cluster.parts().2;
    let mut best: Option<(f64, TypeId)> = None;
    for t in index
        .entries
        .iter()
        .filter(|t| t.is_abstract == want_abstract)
    {
        let weigh_against = match opts.similarity {
            MergeSimilarity::WeightedJaccard => accums.get(&t.id),
            MergeSimilarity::BinaryJaccard => None,
        };
        let sim = match weigh_against {
            Some(acc) => {
                weighted_jaccard(&accum.key_present, accum.count, &acc.key_present, acc.count)
            }
            None => match keys.jaccard_reaching(&t.keys, opts.theta) {
                Some(sim) => sim,
                None => continue,
            },
        };
        let better = match best {
            None => true,
            Some((bs, bid)) => sim > bs || (sim == bs && t.id < bid),
        };
        if sim >= opts.theta && better {
            best = Some((sim, t.id));
        }
    }
    best.map(|(_, id)| id)
}

/// Union `cluster` into type `target` (a lossless union by Lemmas 1/2),
/// or append it as a new type when there is none.
fn place<C: Cluster>(
    state: &mut DiscoveryState,
    index: &mut TypeIndex,
    target: Option<TypeId>,
    cluster: &C,
    stream: Option<SketchParams>,
) -> TypeId {
    let incoming = cluster.to_type();
    let (id, pos) = match target {
        Some(id) => {
            let pos = *index.by_id.get(&id).expect("a target is an indexed type");
            C::Kind::split(state).0[pos].absorb(&incoming);
            (id, pos)
        }
        None => (
            C::Kind::push(&mut state.schema, incoming),
            index.entries.len(),
        ),
    };
    index.record(pos, &C::Kind::view(state).0[pos]);
    let entry = C::Kind::split(state).1.entry(id).or_default();
    if let Some(params) = stream {
        entry.ensure_sketched(params);
    }
    entry.merge(cluster.parts().2);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{EdgeTypeAccum, Membership, NodeTypeAccum};
    use pg_model::{sym, LabelSet, Node, Symbol};
    use std::collections::BTreeSet;

    /// Algorithm 2 at default options but for θ.
    fn integrate_node_clusters(
        state: &mut DiscoveryState,
        clusters: Vec<NodeCluster>,
        theta: f64,
    ) -> Vec<TypeId> {
        let opts = MergeOptions {
            theta,
            ..MergeOptions::default()
        };
        integrate(state, clusters, opts)
    }

    fn integrate_edge_clusters(
        state: &mut DiscoveryState,
        clusters: Vec<EdgeCluster>,
        theta: f64,
        edge_endpoint_aware: bool,
    ) -> Vec<TypeId> {
        let opts = MergeOptions {
            theta,
            edge_endpoint_aware,
            ..MergeOptions::default()
        };
        integrate(state, clusters, opts)
    }

    fn keys(ks: &[&str]) -> BTreeSet<Symbol> {
        ks.iter().map(|k| sym(k)).collect()
    }

    fn node_cluster(labels: &[&str], ks: &[&str], n: u64) -> NodeCluster {
        let mut accum = NodeTypeAccum::default();
        for i in 0..n {
            let mut node = Node::new(i * 7919 + ks.len() as u64, LabelSet::from_iter(labels));
            for k in ks {
                node = node.with_prop(k, 1i64);
            }
            accum.observe(&node);
        }
        NodeCluster {
            labels: LabelSet::from_iter(labels),
            keys: keys(ks),
            accum,
        }
    }

    #[test]
    fn labeled_clusters_with_same_labels_merge() {
        let mut state = DiscoveryState::new();
        // Two Post clusters with different structure (Example 5).
        integrate_node_clusters(
            &mut state,
            vec![
                node_cluster(&["Post"], &["imgFile"], 3),
                node_cluster(&["Post"], &["content"], 2),
            ],
            0.9,
        );
        assert_eq!(state.schema.node_types.len(), 1);
        let t = &state.schema.node_types[0];
        assert_eq!(t.key_set(), keys(&["content", "imgFile"]));
        assert_eq!(state.node_accums[&t.id].count, 5);
    }

    #[test]
    fn unlabeled_cluster_merges_into_similar_labeled_type() {
        let mut state = DiscoveryState::new();
        integrate_node_clusters(
            &mut state,
            vec![
                node_cluster(&["Person"], &["name", "gender", "bday"], 2),
                node_cluster(&[], &["name", "gender", "bday"], 1), // "Alice"
            ],
            0.9,
        );
        assert_eq!(state.schema.node_types.len(), 1);
        let t = &state.schema.node_types[0];
        assert!(!t.is_abstract);
        assert_eq!(state.node_accums[&t.id].count, 3);
    }

    #[test]
    fn dissimilar_unlabeled_cluster_becomes_abstract() {
        let mut state = DiscoveryState::new();
        integrate_node_clusters(
            &mut state,
            vec![
                node_cluster(&["Person"], &["name", "gender", "bday"], 2),
                node_cluster(&[], &["voltage", "current"], 1),
            ],
            0.9,
        );
        assert_eq!(state.schema.node_types.len(), 2);
        let abs: Vec<_> = state
            .schema
            .node_types
            .iter()
            .filter(|t| t.is_abstract)
            .collect();
        assert_eq!(abs.len(), 1);
        assert_eq!(abs[0].key_set(), keys(&["current", "voltage"]));
    }

    #[test]
    fn unlabeled_clusters_merge_among_themselves() {
        let mut state = DiscoveryState::new();
        integrate_node_clusters(
            &mut state,
            vec![
                node_cluster(&[], &["x", "y", "z"], 1),
                node_cluster(&[], &["x", "y", "z"], 2),
            ],
            0.9,
        );
        assert_eq!(state.schema.node_types.len(), 1);
        assert!(state.schema.node_types[0].is_abstract);
        let id = state.schema.node_types[0].id;
        assert_eq!(state.node_accums[&id].count, 3);
    }

    #[test]
    fn unlabeled_clusters_see_what_the_same_call_pushed_and_widened() {
        let mut state = DiscoveryState::new();
        let assigned = integrate_node_clusters(
            &mut state,
            vec![
                // Labeled clusters go first: T is pushed with {a, b} and
                // widened to {a, b, c, d} before any unlabeled one looks.
                node_cluster(&["T"], &["a", "b"], 1),
                node_cluster(&[], &["a", "b", "c", "d"], 1),
                node_cluster(&["T"], &["c", "d"], 1),
                // The first {x, y} becomes an ABSTRACT type, the second
                // must find it.
                node_cluster(&[], &["x", "y"], 1),
                node_cluster(&[], &["x", "y"], 1),
            ],
            0.9,
        );
        assert_eq!(state.schema.node_types.len(), 2);
        assert_eq!(assigned[1], assigned[0], "J = 1 with the widened T");
        assert_eq!(assigned[4], assigned[3]);
        assert_ne!(assigned[3], assigned[0]);
    }

    #[test]
    fn theta_controls_merging() {
        let mut state = DiscoveryState::new();
        // Jaccard({a,b},{a,b,c,d}) = 0.5.
        let clusters = vec![
            node_cluster(&["T"], &["a", "b", "c", "d"], 1),
            node_cluster(&[], &["a", "b"], 1),
        ];
        integrate_node_clusters(&mut state, clusters.clone(), 0.9);
        assert_eq!(state.schema.node_types.len(), 2, "strict θ keeps apart");

        let mut state2 = DiscoveryState::new();
        integrate_node_clusters(&mut state2, clusters, 0.4);
        assert_eq!(state2.schema.node_types.len(), 1, "loose θ merges");
    }

    #[test]
    fn best_candidate_prefers_highest_jaccard() {
        let mut state = DiscoveryState::new();
        integrate_node_clusters(
            &mut state,
            vec![
                node_cluster(&["A"], &["p", "q", "r"], 1),
                node_cluster(&["B"], &["p", "q", "r", "s"], 1),
                // J with A = 1.0, J with B = 0.75 → merges into A.
                node_cluster(&[], &["p", "q", "r"], 1),
            ],
            0.7,
        );
        let a = state
            .schema
            .node_types
            .iter()
            .find(|t| t.labels.contains("A"))
            .unwrap();
        assert_eq!(state.node_accums[&a.id].count, 2);
    }

    fn edge_cluster(label: &str, src: &str, tgt: &str) -> EdgeCluster {
        EdgeCluster {
            labels: LabelSet::single(label),
            keys: BTreeSet::new(),
            src_labels: LabelSet::single(src),
            tgt_labels: LabelSet::single(tgt),
            accum: EdgeTypeAccum::default(),
        }
    }

    #[test]
    fn endpoint_aware_merge_keeps_same_label_types_distinct() {
        // The MB6/FIB25 situation: ConnectsTo between different endpoint
        // types are distinct ground-truth types (Def 3.6's R component).
        let mut state = DiscoveryState::new();
        integrate_edge_clusters(
            &mut state,
            vec![
                edge_cluster("ConnectsTo", "Neuron", "Neuron"),
                edge_cluster("ConnectsTo", "Segment", "Neuron"),
            ],
            0.9,
            true,
        );
        assert_eq!(state.schema.edge_types.len(), 2);
        // Same (L, R) merges.
        integrate_edge_clusters(
            &mut state,
            vec![edge_cluster("ConnectsTo", "Neuron", "Neuron")],
            0.9,
            true,
        );
        assert_eq!(state.schema.edge_types.len(), 2);
    }

    #[test]
    fn label_only_merge_unions_endpoints() {
        let mut state = DiscoveryState::new();
        integrate_edge_clusters(
            &mut state,
            vec![
                edge_cluster("LIKES", "Person", "Post"),
                edge_cluster("LIKES", "Bot", "Post"),
            ],
            0.9,
            false,
        );
        assert_eq!(state.schema.edge_types.len(), 1);
        let t = &state.schema.edge_types[0];
        assert_eq!(t.src_labels, LabelSet::from_iter(["Bot", "Person"]));
        assert_eq!(t.tgt_labels, LabelSet::single("Post"));
    }

    #[test]
    fn weighted_jaccard_formula() {
        use std::collections::HashMap;
        let m = |pairs: &[(&str, u64)]| -> HashMap<Symbol, u64> {
            pairs.iter().map(|(k, c)| (sym(k), *c)).collect()
        };
        // Identical frequency profiles -> 1.0.
        let a = m(&[("x", 10), ("y", 5)]);
        assert!((weighted_jaccard(&a, 10, &a, 10) - 1.0).abs() < 1e-12);
        // Disjoint keys -> 0.0.
        let b = m(&[("z", 10)]);
        assert_eq!(weighted_jaccard(&a, 10, &b, 10), 0.0);
        // Both empty -> 1.0 (binary convention).
        let e: HashMap<Symbol, u64> = HashMap::new();
        assert_eq!(weighted_jaccard(&e, 0, &e, 0), 1.0);
        // Same keys at different rates: f_a = (1.0, 0.5), f_b = (0.5, 1.0)
        // -> min-sum 1.0 / max-sum 2.0 = 0.5.
        let c = m(&[("x", 5), ("y", 10)]);
        assert!((weighted_jaccard(&a, 10, &c, 10) - 0.5).abs() < 1e-12);
        // Symmetry.
        assert_eq!(
            weighted_jaccard(&a, 10, &c, 10),
            weighted_jaccard(&c, 10, &a, 10)
        );
    }

    #[test]
    fn weighted_jaccard_merges_sparse_clusters_binary_misses() {
        // A labeled type whose instances carry each of 4 keys at rate
        // ~0.5 (sparse data). A small unlabeled cluster with the same
        // rate profile only ever observed 2 of the keys: binary Jaccard
        // fails (2/4 = 0.5 < 0.9) while the frequency-weighted form
        // recognizes the matching rates (future-work item (a)).
        use crate::state::NodeTypeAccum;
        let sparse_accum = |present: &[(&str, u64)], n: u64, id0: u64| -> NodeTypeAccum {
            let mut acc = NodeTypeAccum {
                count: n,
                membership: Membership::Exact {
                    members: (id0..id0 + n).map(pg_model::NodeId).collect(),
                    endpoints: Vec::new(),
                },
                ..NodeTypeAccum::default()
            };
            for (k, c) in present {
                acc.key_present.insert(sym(k), *c);
            }
            acc
        };

        let labeled = NodeCluster {
            labels: LabelSet::single("T"),
            keys: keys(&["a", "b", "c", "d"]),
            accum: sparse_accum(&[("a", 50), ("b", 50), ("c", 50), ("d", 50)], 100, 0),
        };
        let unlabeled = || NodeCluster {
            labels: LabelSet::empty(),
            keys: keys(&["a", "b"]),
            accum: sparse_accum(&[("a", 2), ("b", 2)], 4, 1000),
        };

        // Binary Jaccard (theta = 0.9): no merge -> abstract leftover.
        let mut state_b = DiscoveryState::new();
        integrate_node_clusters(&mut state_b, vec![labeled.clone(), unlabeled()], 0.9);
        assert_eq!(state_b.schema.node_types.len(), 2);

        // Weighted Jaccard: rates (0.5,0.5,0.5,0.5) vs (0.5,0.5,0,0)
        // -> 1.0/2.0 = 0.5; with theta_w = 0.45 the cluster merges.
        let mut state_w = DiscoveryState::new();
        integrate(
            &mut state_w,
            vec![labeled, unlabeled()],
            MergeOptions {
                theta: 0.45,
                similarity: MergeSimilarity::WeightedJaccard,
                edge_endpoint_aware: true,
                stream: None,
            },
        );
        assert_eq!(state_w.schema.node_types.len(), 1);
        assert!(!state_w.schema.node_types[0].is_abstract);
        let tid = state_w.schema.node_types[0].id;
        assert_eq!(state_w.node_accums[&tid].count, 104);
    }

    #[test]
    fn incremental_integration_is_monotone() {
        let mut state = DiscoveryState::new();
        integrate_node_clusters(
            &mut state,
            vec![node_cluster(&["Person"], &["name"], 2)],
            0.9,
        );
        let s1 = state.schema.clone();
        integrate_node_clusters(
            &mut state,
            vec![
                node_cluster(&["Person"], &["name", "age"], 1),
                node_cluster(&["Org"], &["url"], 1),
            ],
            0.9,
        );
        assert!(s1.is_generalized_by(&state.schema));
        assert!(!state.schema.is_generalized_by(&s1));
    }
}
