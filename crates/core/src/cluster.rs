//! The clustering step (§4.2): run LSH over the feature representation
//! and summarize each cluster by its representative pattern.
//!
//! A cluster's representative (§4.2, "Cluster representative") is the
//! union of member labels, the union of member property keys, and — for
//! edges — the unions of source/target endpoint labels. Candidate types
//! are exactly these representatives, with per-instance statistics folded
//! into an accumulator for later post-processing.

use crate::config::{HiveConfig, LshMethod, LshParams};
use crate::extract::Cluster;
use crate::features::{FeatureSpace, Fingerprint};
use crate::state::{DtypeHist, EdgeTypeAccum, Kind, Membership, NodeTypeAccum, Record};
use pg_lsh::adaptive::{self, AdaptiveParams, ElementKind};
use pg_lsh::{group_by_key, Clustering, EuclideanLsh, Grouping, MinHashLsh, SparseVec};
use pg_model::{DataType, FnvBuildHasher, LabelSet, Symbol};
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// How far the structural-fingerprint dedup collapsed one clustering
/// pass: `records` elements entered, `distinct` fingerprints were
/// actually featurized and hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupStats {
    /// Elements in the batch.
    pub records: usize,
    /// Distinct structural fingerprints (= LSH inputs).
    pub distinct: usize,
}

impl DedupStats {
    /// `records / distinct` — how many records each distinct fingerprint
    /// stands for on average (1.0 when every record is structurally
    /// unique, or the pass was empty).
    pub fn ratio(&self) -> f64 {
        if self.distinct == 0 {
            1.0
        } else {
            self.records as f64 / self.distinct as f64
        }
    }
}

/// Broadcast a clustering of fingerprint representatives back to the
/// full record set. `grouping.reps` is in record first-occurrence order
/// and `rep_clustering` numbers clusters densely in *rep*
/// first-occurrence order, so the composed ids are already dense in
/// record first-occurrence order — exactly what clustering every
/// record individually would produce (equal fingerprints ⇒
/// bit-identical vectors ⇒ equal signatures).
fn broadcast(rep_clustering: &Clustering, grouping: &Grouping) -> Clustering {
    let assignment: Vec<usize> = (grouping.assignment.iter())
        .map(|&g| rep_clustering.assignment[g])
        .collect();
    Clustering {
        assignment,
        num_clusters: rep_clustering.num_clusters,
    }
}

/// A candidate node type: cluster representative + accumulator.
#[derive(Debug, Clone, Default)]
pub struct NodeCluster {
    /// Union of member labels (L).
    pub labels: LabelSet,
    /// Union of member property keys (K).
    pub keys: BTreeSet<Symbol>,
    /// Folded per-instance statistics.
    pub accum: NodeTypeAccum,
}

/// A candidate edge type: cluster representative + accumulator.
#[derive(Debug, Clone, Default)]
pub struct EdgeCluster {
    /// Union of member edge labels (L).
    pub labels: LabelSet,
    /// Union of member property keys (K).
    pub keys: BTreeSet<Symbol>,
    /// Union of member source labels (R, source side).
    pub src_labels: LabelSet,
    /// Union of member target labels (R, target side).
    pub tgt_labels: LabelSet,
    /// Folded per-instance statistics.
    pub accum: EdgeTypeAccum,
}

/// Resolve ELSH parameters for the distinct-fingerprint `vectors`;
/// `assignment` maps every record to its vector, so the adaptive μ
/// sample runs over the full *virtual* record set.
fn resolve_elsh_params(
    params: &LshParams,
    vectors: &[SparseVec],
    assignment: &[usize],
    distinct_labels: usize,
    kind: ElementKind,
    seed: u64,
) -> (f64, usize, Option<AdaptiveParams>) {
    match params {
        LshParams::Adaptive => {
            let p = adaptive::adapt_grouped(vectors, assignment, distinct_labels, kind, seed);
            (p.bucket_length, p.tables, Some(p))
        }
        LshParams::Manual {
            bucket_length,
            tables,
        } => (*bucket_length, *tables, None),
    }
}

/// Resolve the table count for MinHash (bucket length is meaningless).
fn resolve_minhash_tables(
    params: &LshParams,
    n_items: usize,
    distinct_labels: usize,
    kind: ElementKind,
) -> (usize, Option<AdaptiveParams>) {
    match params {
        LshParams::Adaptive => {
            // MinHash has no distance scale; the table heuristic uses a
            // unit scale (§4.2: "MinHash only requires the number of
            // hash tables T").
            let p = adaptive::from_scale(1.0, n_items, distinct_labels, kind);
            (p.tables, Some(p))
        }
        LshParams::Manual { tables, .. } => (*tables, None),
    }
}

/// Cluster one kind's records of the batch. Returns the candidate
/// clusters, the adaptive parameters actually used (if adaptive), the
/// dedup statistics of the pass, and how much of the call went to
/// assembling the clusters once LSH had assigned every record to one.
///
/// Records are first collapsed to their structural fingerprints and
/// only the distinct fingerprints are featurized and LSH-hashed; cluster
/// ids are then broadcast back. The result is bit-identical to
/// clustering every record individually (the test module's naive
/// oracle) — feature vectors are value-independent, the adaptive μ
/// sample is computed over the full *virtual* record set with the same
/// RNG stream, and the representative cluster assembly always folds the
/// full record set (counts, cardinalities, and datatype stats are
/// unaffected).
pub fn cluster_records<C: Cluster>(
    records: &[C::Record],
    fs: &FeatureSpace,
    cfg: &HiveConfig,
) -> (Vec<C>, Option<AdaptiveParams>, DedupStats, Duration) {
    if records.is_empty() {
        return (Vec::new(), None, DedupStats::default(), Duration::ZERO);
    }
    let (clustering, params, stats) = clustering(records, fs, cfg);
    let start = Instant::now();
    let clusters = assemble(records, &clustering);
    (clusters, params, stats, start.elapsed())
}

/// The LSH half of [`cluster_records`], one cluster id per record: group
/// records by fingerprint, featurize and LSH-hash one representative per
/// group (its vector for ELSH, its set for MinHash), and broadcast the
/// representatives' cluster ids back to every record.
fn clustering<R: Record>(
    records: &[R],
    fs: &FeatureSpace,
    cfg: &HiveConfig,
) -> (Clustering, Option<AdaptiveParams>, DedupStats) {
    let (lsh_params, seed) = match R::ELEMENT {
        ElementKind::Node => (&cfg.node_params, cfg.seed),
        ElementKind::Edge => (&cfg.edge_params, cfg.seed.wrapping_add(1)),
    };
    let fps: Vec<Fingerprint> = records.iter().map(|r| fs.fingerprint(r)).collect();
    let grouping = group_by_key(&fps);
    // Equal fingerprints have equal label sets: one record of each group
    // names every label the batch carries.
    let distinct_labels: BTreeSet<&str> = (grouping.reps.iter())
        .flat_map(|&i| records[i].role(0).iter().map(|l| l.as_ref()))
        .collect();
    let stats = DedupStats {
        records: fps.len(),
        distinct: grouping.num_groups,
    };
    let reps = grouping.reps.iter().map(|&i| &fps[i]);
    let (rep_clustering, params) = match cfg.method {
        LshMethod::Elsh => {
            let vectors: Vec<SparseVec> = reps.map(|fp| fs.fingerprint_vector::<R>(fp)).collect();
            let (b, t, p) = resolve_elsh_params(
                lsh_params,
                &vectors,
                &grouping.assignment,
                distinct_labels.len(),
                R::ELEMENT,
                seed,
            );
            let lsh = EuclideanLsh::new(fs.dim_of::<R>().max(1), t, b, seed);
            (lsh.cluster_signature(&vectors), p)
        }
        LshMethod::MinHash => {
            let sets: Vec<Vec<u64>> = reps.map(|fp| fs.fingerprint_set::<R>(fp)).collect();
            // Table count scales with the *record* count, not the
            // fingerprint count.
            let (t, p) =
                resolve_minhash_tables(lsh_params, fps.len(), distinct_labels.len(), R::ELEMENT);
            (MinHashLsh::new(t, seed).cluster_signature(&sets), p)
        }
    };
    (broadcast(&rep_clustering, &grouping), params, stats)
}

/// Stable counting-sort of record indices by cluster id: records of
/// cluster `c` end up at `order[starts[c]..starts[c]+counts[c]]`, in
/// record order. [`assemble`] therefore visits each cluster's members in
/// exactly the order a per-record fold does, which is what keeps the
/// accumulators' member and endpoint lists bit-identical.
fn group_by_cluster(
    assignment: &[usize],
    num_clusters: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut counts = vec![0usize; num_clusters];
    for &cid in assignment {
        counts[cid] += 1;
    }
    let mut starts = vec![0usize; num_clusters];
    let mut acc = 0usize;
    for (s, &c) in starts.iter_mut().zip(&counts) {
        *s = acc;
        acc += c;
    }
    let mut order = vec![0usize; assignment.len()];
    let mut next = starts.clone();
    for (i, &cid) in assignment.iter().enumerate() {
        order[next[cid]] = i;
        next[cid] += 1;
    }
    (order, starts, counts)
}

/// Per-property flat accumulation state, reused across the clusters of
/// one batch: property keys resolve to dense slots through an FNV map of
/// borrowed `&str` (no hashing of `Arc` pointers, no per-record clone),
/// and presence counts / dtype histograms live in slot-indexed arrays.
/// Exactly one `Symbol` clone happens per distinct key per cluster — the
/// same clone the old `entry(k.clone())` path kept only on first
/// insertion, minus the 2× per-record clone-and-drop traffic.
#[derive(Default)]
struct KeySlots<'a> {
    slots: HashMap<&'a str, usize, FnvBuildHasher>,
    syms: Vec<Symbol>,
    present: Vec<u64>,
    hist: Vec<DtypeHist>,
}

impl<'a> KeySlots<'a> {
    fn clear(&mut self) {
        self.slots.clear();
        self.syms.clear();
        self.present.clear();
        self.hist.clear();
    }

    /// Fold one property observation in.
    fn observe(&mut self, key: &'a Symbol, value: &pg_model::PropertyValue) {
        let slot = match self.slots.get(key.as_ref()) {
            Some(&s) => s,
            None => {
                let s = self.syms.len();
                self.slots.insert(key.as_ref(), s);
                self.syms.push(key.clone());
                self.present.push(0);
                self.hist.push(DtypeHist::default());
                s
            }
        };
        self.present[slot] += 1;
        self.hist[slot].observe(DataType::of(value));
    }

    /// Convert the flat arrays into the accumulator's map form, draining
    /// the histograms (counts/symbols stay for `clear` reuse).
    fn drain_into(
        &mut self,
        keys: &mut BTreeSet<Symbol>,
        key_present: &mut HashMap<Symbol, u64>,
        dtype_hist: &mut HashMap<Symbol, DtypeHist>,
    ) {
        keys.extend(self.syms.iter().cloned());
        key_present.extend(self.syms.iter().cloned().zip(self.present.iter().copied()));
        dtype_hist.extend(self.syms.iter().cloned().zip(self.hist.drain(..)));
    }
}

/// Fold `other` into `acc` only when it adds a label — the sequential
/// fold's `acc = acc.union(other)` allocates a fresh vector per record;
/// the subset test makes the (overwhelmingly common) already-covered
/// case allocation-free while producing the same canonical set.
fn union_into(acc: &mut LabelSet, other: &LabelSet) {
    if !other.is_subset_of(acc) {
        *acc = acc.union(other);
    }
}

/// Summarise `clustering`'s clusters of `records` (one assignment per
/// record) by their representatives and statistics: group the records by
/// cluster id once, then run a tight per-cluster loop over slot-indexed
/// arrays. Bit-identical to folding the records one by one — member
/// order is record order and every map ends up with the same (key,
/// count) content — but without per-record `Arc` churn or redundant
/// label-union allocation. An id no record has stays `C::default()`.
pub fn assemble<C: Cluster>(records: &[C::Record], clustering: &Clustering) -> Vec<C> {
    let (order, starts, counts) = group_by_cluster(&clustering.assignment, clustering.num_clusters);
    let mut clusters = Vec::with_capacity(counts.len());
    let mut ks = KeySlots::default();
    for (cid, &n) in counts.iter().enumerate() {
        if n == 0 {
            clusters.push(C::default());
            continue;
        }
        let mut c = C::default();
        ks.clear();
        let mut members = Vec::with_capacity(n);
        // A node has no endpoints by type (`Kind::ends` is `None`, the
        // pair uninhabited), so its list reserves and holds nothing.
        let mut endpoints = Vec::with_capacity(n);
        for &i in &order[starts[cid]..starts[cid] + n] {
            let rec = &records[i];
            for r in 0..C::Record::ROLES {
                union_into(c.role_mut(r), rec.role(r));
            }
            let instance = rec.instance();
            members.push(instance.id());
            endpoints.extend(instance.ends());
            for (k, v) in instance.props() {
                ks.observe(k, v);
            }
        }
        let (keys, accum) = c.stats_mut();
        accum.count = n as u64;
        accum.membership = Membership::Exact { members, endpoints };
        ks.drain_into(keys, &mut accum.key_present, &mut accum.dtype_hist);
        clusters.push(c);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbeddingKind;
    use pg_embed::Word2VecConfig;
    use pg_model::{Edge, LabelSet, Node, NodeId};
    use pg_store::{EdgeRecord, NodeRecord};
    use proptest::prelude::*;

    fn quick_cfg(method: LshMethod) -> HiveConfig {
        HiveConfig {
            method,
            embedding: EmbeddingKind::Word2Vec(Word2VecConfig {
                dim: 5,
                epochs: 2,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    /// ELSH parameters over one vector per record (no grouping).
    fn naive_elsh_params(
        params: &LshParams,
        vectors: &[SparseVec],
        distinct_labels: usize,
        kind: ElementKind,
        seed: u64,
    ) -> (f64, usize, Option<AdaptiveParams>) {
        match params {
            LshParams::Adaptive => {
                let p = adaptive::adapt(vectors, distinct_labels, kind, seed);
                (p.bucket_length, p.tables, Some(p))
            }
            LshParams::Manual {
                bucket_length,
                tables,
            } => (*bucket_length, *tables, None),
        }
    }

    /// The specification [`clustering`] must equal bit for bit:
    /// featurize and LSH-hash every record individually, with no
    /// fingerprint collapse.
    fn naive_clustering<R: Record>(
        records: &[R],
        fs: &FeatureSpace,
        cfg: &HiveConfig,
    ) -> (Clustering, Option<AdaptiveParams>) {
        let (lsh_params, seed) = match R::ELEMENT {
            ElementKind::Node => (&cfg.node_params, cfg.seed),
            ElementKind::Edge => (&cfg.edge_params, cfg.seed.wrapping_add(1)),
        };
        let distinct_labels: BTreeSet<&str> = records
            .iter()
            .flat_map(|r| r.role(0).iter().map(|l| l.as_ref()))
            .collect();
        match cfg.method {
            LshMethod::Elsh => {
                let vectors: Vec<SparseVec> = records.iter().map(|r| fs.vector(r)).collect();
                let (b, t, p) = naive_elsh_params(
                    lsh_params,
                    &vectors,
                    distinct_labels.len(),
                    R::ELEMENT,
                    seed,
                );
                let lsh = EuclideanLsh::new(fs.dim_of::<R>().max(1), t, b, seed);
                (lsh.cluster_signature(&vectors), p)
            }
            LshMethod::MinHash => {
                let sets: Vec<Vec<u64>> = records.iter().map(|r| fs.set(r)).collect();
                let (t, p) = resolve_minhash_tables(
                    lsh_params,
                    records.len(),
                    distinct_labels.len(),
                    R::ELEMENT,
                );
                (MinHashLsh::new(t, seed).cluster_signature(&sets), p)
            }
        }
    }

    fn two_type_nodes() -> Vec<NodeRecord> {
        let mut v = Vec::new();
        for i in 0..30u64 {
            v.push(
                Node::new(i, LabelSet::single("Person"))
                    .with_prop("name", "x")
                    .with_prop("age", 1i64),
            );
            v.push(
                Node::new(100 + i, LabelSet::single("Org"))
                    .with_prop("url", "u")
                    .with_prop("name", "y"),
            );
        }
        v
    }

    #[test]
    fn elsh_separates_two_clean_types() {
        let nodes = two_type_nodes();
        let cfg = quick_cfg(LshMethod::Elsh);
        let fs = FeatureSpace::build(&nodes, &[], &cfg.embedding, cfg.seed);
        let (clusters, params, stats, _) = cluster_records::<NodeCluster>(&nodes, &fs, &cfg);
        assert_eq!(clusters.len(), 2, "two structurally distinct types");
        assert!(params.is_some(), "adaptive params reported");
        let total: u64 = clusters.iter().map(|c| c.accum.count).sum();
        assert_eq!(total, 60);
        for c in &clusters {
            assert_eq!(c.labels.len(), 1, "clusters are pure: {}", c.labels);
        }
        // 60 records, 2 structures: dedup collapses 30:1.
        assert_eq!(stats.records, 60);
        assert_eq!(stats.distinct, 2);
        assert_eq!(stats.ratio(), 30.0);
    }

    #[test]
    fn minhash_separates_two_clean_types() {
        let nodes = two_type_nodes();
        let cfg = quick_cfg(LshMethod::MinHash);
        let fs = FeatureSpace::build(&nodes, &[], &cfg.embedding, cfg.seed);
        let (clusters, ..) = cluster_records::<NodeCluster>(&nodes, &fs, &cfg);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn representative_is_union_of_members() {
        // Same label, varying property sets → AND-rule LSH fragments, but
        // each cluster's rep is the union over its members.
        let nodes = vec![
            Node::new(1, LabelSet::single("Post")).with_prop("imgFile", "a"),
            Node::new(2, LabelSet::single("Post")).with_prop("content", "b"),
        ];
        let cfg = quick_cfg(LshMethod::Elsh);
        let fs = FeatureSpace::build(&nodes, &[], &cfg.embedding, cfg.seed);
        let (clusters, ..) = cluster_records::<NodeCluster>(&nodes, &fs, &cfg);
        let all_keys: BTreeSet<_> = clusters.iter().flat_map(|c| c.keys.clone()).collect();
        assert_eq!(all_keys.len(), 2);
        for c in &clusters {
            assert!(c.labels.contains("Post"));
        }
    }

    #[test]
    fn edges_cluster_by_label_and_endpoints() {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for i in 0..20u64 {
            nodes.push(Node::new(i, LabelSet::single("Person")).with_prop("name", "n"));
            nodes.push(Node::new(100 + i, LabelSet::single("Org")).with_prop("url", "u"));
        }
        for i in 0..19u64 {
            edges.push(EdgeRecord {
                edge: Edge::new(
                    1000 + i,
                    NodeId(i),
                    NodeId(i + 1),
                    LabelSet::single("KNOWS"),
                ),
                src_labels: LabelSet::single("Person"),
                tgt_labels: LabelSet::single("Person"),
            });
            edges.push(EdgeRecord {
                edge: Edge::new(
                    2000 + i,
                    NodeId(i),
                    NodeId(100 + i),
                    LabelSet::single("WORKS_AT"),
                )
                .with_prop("from", 2020i64),
                src_labels: LabelSet::single("Person"),
                tgt_labels: LabelSet::single("Org"),
            });
        }
        let cfg = quick_cfg(LshMethod::Elsh);
        let fs = FeatureSpace::build(&nodes, &edges, &cfg.embedding, cfg.seed);
        let (clusters, ..) = cluster_records::<EdgeCluster>(&edges, &fs, &cfg);
        assert_eq!(clusters.len(), 2);
        let works = clusters
            .iter()
            .find(|c| c.labels.contains("WORKS_AT"))
            .unwrap();
        assert_eq!(works.src_labels, LabelSet::single("Person"));
        assert_eq!(works.tgt_labels, LabelSet::single("Org"));
        assert_eq!(works.accum.endpoints().len(), 19);
    }

    /// Sparse assembly against a literal per-record fold.
    fn assert_nodes_match_naive_fold(nodes: &[NodeRecord], clustering: &Clustering) {
        let flat: Vec<NodeCluster> = assemble(nodes, clustering);
        let mut naive: Vec<NodeCluster> = (0..clustering.num_clusters)
            .map(|_| NodeCluster::default())
            .collect();
        for (node, &cid) in nodes.iter().zip(&clustering.assignment) {
            let c = &mut naive[cid];
            c.labels = c.labels.union(&node.labels);
            c.keys.extend(node.props.keys().cloned());
            c.accum.observe(node);
        }
        assert_eq!(flat.len(), naive.len());
        for (a, b) in flat.iter().zip(&naive) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.accum.count, b.accum.count);
            assert_eq!(a.accum.key_present, b.accum.key_present);
            assert_eq!(a.accum.dtype_hist, b.accum.dtype_hist);
            assert_eq!(a.accum.members(), b.accum.members());
        }
    }

    /// The flat assembly kernel is an optimization of the old per-record
    /// fold; this pins them against a literal reimplementation of that
    /// fold — same labels, same key sets, same presence counts and
    /// histograms, same member/endpoint order.
    #[test]
    fn flat_kernels_match_naive_fold() {
        let mut nodes = Vec::new();
        for i in 0..50u64 {
            let n = match i % 3 {
                0 => Node::new(i, LabelSet::from_iter(["Person", "Student"]))
                    .with_prop("name", format!("p{i}"))
                    .with_prop("age", i as i64),
                1 => Node::new(i, LabelSet::single("Person")).with_prop("name", 1.5f64),
                _ => Node::new(i, LabelSet::empty()).with_prop("age", "old"),
            };
            nodes.push(n);
        }
        assert_nodes_match_naive_fold(
            &nodes,
            &Clustering {
                assignment: (0..nodes.len()).map(|i| i % 4).collect(),
                num_clusters: 5, // one cluster deliberately empty
            },
        );
        // More clusters than records: the unused ids stay empty.
        let nodes: Vec<NodeRecord> = (0..2_000u64)
            .zip(nodes.iter().cycle())
            .map(|(id, node)| NodeRecord {
                id: NodeId(id),
                ..node.clone()
            })
            .collect();
        assert_nodes_match_naive_fold(
            &nodes,
            &Clustering {
                assignment: (0..nodes.len()).map(|i| (i * 7) % 3000).collect(),
                num_clusters: 4000,
            },
        );

        let edges: Vec<EdgeRecord> = (0..40u64)
            .map(|i| EdgeRecord {
                edge: Edge::new(1000 + i, NodeId(i % 7), NodeId(i % 5), {
                    if i % 2 == 0 {
                        LabelSet::single("KNOWS")
                    } else {
                        LabelSet::single("LIKES")
                    }
                })
                .with_prop("w", i as i64),
                src_labels: LabelSet::single("Person"),
                tgt_labels: if i % 3 == 0 {
                    LabelSet::single("Org")
                } else {
                    LabelSet::single("Person")
                },
            })
            .collect();
        let assignment: Vec<usize> = (0..edges.len()).map(|i| (i / 3) % 3).collect();
        let clustering = Clustering {
            assignment: assignment.clone(),
            num_clusters: 3,
        };
        let flat: Vec<EdgeCluster> = assemble(&edges, &clustering);
        let mut naive: Vec<EdgeCluster> = (0..clustering.num_clusters)
            .map(|_| EdgeCluster::default())
            .collect();
        for (rec, &cid) in edges.iter().zip(&assignment) {
            let c = &mut naive[cid];
            c.labels = c.labels.union(&rec.edge.labels);
            c.src_labels = c.src_labels.union(&rec.src_labels);
            c.tgt_labels = c.tgt_labels.union(&rec.tgt_labels);
            c.keys.extend(rec.edge.props.keys().cloned());
            c.accum.observe(&rec.edge);
        }
        for (a, b) in flat.iter().zip(&naive) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.src_labels, b.src_labels);
            assert_eq!(a.tgt_labels, b.tgt_labels);
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.accum.count, b.accum.count);
            assert_eq!(a.accum.key_present, b.accum.key_present);
            assert_eq!(a.accum.dtype_hist, b.accum.dtype_hist);
            assert_eq!(a.accum.members(), b.accum.members());
            assert_eq!(a.accum.endpoints(), b.accum.endpoints());
        }
    }

    #[test]
    fn empty_inputs() {
        let cfg = quick_cfg(LshMethod::Elsh);
        let fs = FeatureSpace::build(&[], &[], &cfg.embedding, cfg.seed);
        let (nc, np, ns, _) = cluster_records::<NodeCluster>(&[], &fs, &cfg);
        assert!(nc.is_empty() && np.is_none());
        assert_eq!(ns, DedupStats::default());
        let (ec, ep, es, _) = cluster_records::<EdgeCluster>(&[], &fs, &cfg);
        assert!(ec.is_empty() && ep.is_none());
        assert_eq!(es, DedupStats::default());
    }

    /// Mixed-structure stream where fingerprints recur in a scrambled
    /// order: the dedup path must assign cluster ids in record
    /// first-occurrence order, i.e. exactly the ids of the naive oracle.
    fn scrambled_nodes() -> Vec<NodeRecord> {
        let mut v = Vec::new();
        for i in 0..120u64 {
            let n = match i % 4 {
                0 => Node::new(i, LabelSet::single("Person"))
                    .with_prop("name", format!("p{i}"))
                    .with_prop("age", i as i64),
                1 => Node::new(i, LabelSet::single("Org")).with_prop("url", format!("u{i}")),
                2 => Node::new(i, LabelSet::empty()).with_prop("name", format!("x{i}")),
                _ => Node::new(i, LabelSet::single("Person")).with_prop("name", format!("q{i}")),
            };
            v.push(n);
        }
        v
    }

    #[test]
    fn dedup_preserves_first_occurrence_cluster_order() {
        // The naive oracle is the specification; dedup must reproduce its
        // cluster representatives *in the same order* (assembly indexes
        // clusters by id, so any renumbering would reorder the output).
        let nodes = scrambled_nodes();
        for method in [LshMethod::Elsh, LshMethod::MinHash] {
            let on = quick_cfg(method);
            let fs = FeatureSpace::build(&nodes, &[], &on.embedding, on.seed);
            let (c_on, p_on, s_on, _) = cluster_records::<NodeCluster>(&nodes, &fs, &on);
            let (naive, p_off) = naive_clustering(&nodes, &fs, &on);
            let c_off: Vec<NodeCluster> = assemble(&nodes, &naive);
            assert_eq!(p_on, p_off, "adaptive params must agree ({method:?})");
            assert_eq!(c_on.len(), c_off.len(), "({method:?})");
            for (a, b) in c_on.iter().zip(&c_off) {
                assert_eq!(a.labels, b.labels, "({method:?})");
                assert_eq!(a.keys, b.keys, "({method:?})");
                assert_eq!(a.accum.count, b.accum.count, "({method:?})");
                assert_eq!(a.accum.members(), b.accum.members(), "({method:?})");
            }
            assert_eq!(s_on.records, 120);
            assert_eq!(s_on.distinct, 4, "four structural fingerprints");
        }
    }

    #[test]
    fn dedup_matches_naive_for_edges() {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for i in 0..40u64 {
            nodes.push(Node::new(i, LabelSet::single("Person")).with_prop("name", "n"));
            nodes.push(Node::new(100 + i, LabelSet::single("Org")).with_prop("url", "u"));
            edges.push(EdgeRecord {
                edge: Edge::new(
                    1000 + i,
                    NodeId(i),
                    NodeId(i + 1),
                    LabelSet::single("KNOWS"),
                ),
                src_labels: LabelSet::single("Person"),
                tgt_labels: LabelSet::single("Person"),
            });
            edges.push(EdgeRecord {
                edge: Edge::new(
                    2000 + i,
                    NodeId(i),
                    NodeId(100 + i),
                    LabelSet::single("WORKS_AT"),
                )
                .with_prop("from", 2020 + i as i64),
                src_labels: LabelSet::single("Person"),
                tgt_labels: LabelSet::single("Org"),
            });
        }
        let on = quick_cfg(LshMethod::Elsh);
        let fs = FeatureSpace::build(&nodes, &edges, &on.embedding, on.seed);
        let (c_on, p_on, s_on, _) = cluster_records::<EdgeCluster>(&edges, &fs, &on);
        let (naive, p_off) = naive_clustering(&edges, &fs, &on);
        let c_off: Vec<EdgeCluster> = assemble(&edges, &naive);
        assert_eq!(p_on, p_off);
        assert_eq!(c_on.len(), c_off.len());
        for (a, b) in c_on.iter().zip(&c_off) {
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.src_labels, b.src_labels);
            assert_eq!(a.tgt_labels, b.tgt_labels);
            assert_eq!(a.accum.members(), b.accum.members());
        }
        assert_eq!(s_on.distinct, 2);
    }

    /// A small dataset twin, optionally noised (the `tests/common`
    /// `case_graph`, which unit tests cannot import).
    fn case_records(dataset: &str, seed: u64, noisy: bool) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
        use pg_datasets::{generate, inject_noise, spec_by_name, NoiseConfig};
        let spec = spec_by_name(dataset).expect("known dataset").scaled(0.03);
        let (mut graph, _) = generate(&spec, seed);
        if noisy {
            inject_noise(
                &mut graph,
                NoiseConfig {
                    property_removal: 0.3,
                    label_availability: 0.7,
                    seed: seed ^ 0x5eed,
                },
            );
        }
        pg_store::load(&graph)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The shipped fingerprint-dedup clustering is bit-identical to
        /// the naive per-record oracle — same cluster id for every
        /// record, same adaptive parameters — for {ELSH, MinHash} ×
        /// {nodes, edges}, across datasets, seeds and noise. Everything downstream (assembly, Algorithm 2, the
        /// schema hash) is a deterministic function of these two
        /// outputs.
        #[test]
        fn dedup_clustering_is_bit_identical_to_naive(
            dataset in prop::sample::select(vec!["POLE", "MB6", "ICIJ"]),
            seed in 0u64..1000,
            minhash in prop::bool::ANY,
            noisy in prop::bool::ANY,
        ) {
            let (nodes, edges) = case_records(dataset, seed, noisy);
            let method = if minhash { LshMethod::MinHash } else { LshMethod::Elsh };
            let cfg = HiveConfig { seed, ..quick_cfg(method) };
            let fs = FeatureSpace::build(&nodes, &edges, &cfg.embedding, cfg.seed);
            let (shipped_nodes, shipped_edges) =
                (clustering(&nodes, &fs, &cfg), clustering(&edges, &fs, &cfg));

            let (clustering, params, stats) = shipped_nodes;
            let (naive, naive_params) = naive_clustering(&nodes, &fs, &cfg);
            prop_assert_eq!(clustering, naive);
            prop_assert_eq!(params, naive_params);
            // Dedup actually engaged: structures repeat in these datasets.
            prop_assert!(stats.distinct < stats.records);

            let (clustering, params, _) = shipped_edges;
            let (naive, naive_params) = naive_clustering(&edges, &fs, &cfg);
            prop_assert_eq!(clustering, naive);
            prop_assert_eq!(params, naive_params);
        }
    }

    /// Everything the clustering of one kind's records produced, into
    /// `h`: every record's cluster id, the adaptive parameters, and every
    /// distinct fingerprint's vector entries and MinHash set.
    fn digest_pass<R: Record>(
        h: &mut pg_model::FnvHasher,
        records: &[R],
        fs: &FeatureSpace,
        cfg: &HiveConfig,
    ) {
        use std::hash::Hasher;
        let (clustering, params, _) = clustering(records, fs, cfg);
        h.write_u64(clustering.num_clusters as u64);
        clustering
            .assignment
            .iter()
            .for_each(|&c| h.write_u64(c as u64));
        let p = params.expect("adaptive parameters");
        for x in [p.mu, p.b_base, p.alpha, p.bucket_length] {
            h.write_u64(x.to_bits());
        }
        h.write_u64(p.tables as u64);
        let fps: Vec<Fingerprint> = records.iter().map(|r| fs.fingerprint(r)).collect();
        for &rep in &group_by_key(&fps).reps {
            let v = fs.fingerprint_vector::<R>(&fps[rep]);
            h.write_u64(v.dim() as u64);
            for (i, x) in v.iter() {
                h.write_u64(i as u64);
                h.write_u64(x.to_bits());
            }
            let set = fs.fingerprint_set::<R>(&fps[rep]);
            h.write_u64(set.len() as u64);
            set.iter().for_each(|&e| h.write_u64(e));
        }
    }

    /// The generic builders and the per-record oracle share their offset
    /// and namespace arithmetic, so the oracle alone does not pin it.
    /// This digest does: the value was recorded by running this body —
    /// with the per-kind function names of the time — in a checkout of
    /// the last commit that spelled featurization and clustering out per
    /// kind (9c66cdf).
    #[test]
    fn clustering_digest_is_pinned() {
        let mut h = pg_model::FnvHasher::default();
        for dataset in ["POLE", "MB6", "ICIJ"] {
            let (nodes, edges) = case_records(dataset, 42, true);
            for method in [LshMethod::Elsh, LshMethod::MinHash] {
                let cfg = HiveConfig {
                    seed: 42,
                    ..quick_cfg(method)
                };
                let fs = FeatureSpace::build(&nodes, &edges, &cfg.embedding, cfg.seed);
                digest_pass(&mut h, &nodes, &fs, &cfg);
                digest_pass(&mut h, &edges, &fs, &cfg);
            }
        }
        assert_eq!(std::hash::Hasher::finish(&h), 0xaa3161abf00846a4);
    }
}
