//! Featurization (§4.1): the hybrid vector representation.
//!
//! Each node `v` becomes `f_v ∈ R^{d+K}`: the Word2Vec embedding of its
//! canonical label token (zero vector if unlabeled) concatenated with a
//! binary indicator over the dataset's `K` distinct node property keys.
//! Each edge `e` becomes `f_e ∈ R^{3d+Q}`: embeddings of the edge label,
//! source labels, and target labels, plus the binary indicator over the
//! `Q` distinct edge property keys.
//!
//! For MinHash, elements are instead modeled as *sets*: property-key ids
//! plus (namespaced) label-token ids.

use crate::config::EmbeddingKind;
use pg_embed::{build_sentences, HashedEmbedder, LabelEmbedder, Word2Vec};
use pg_lsh::{FnvHashMap, SparseVec};
use pg_model::{LabelSet, Symbol};
use pg_store::{EdgeRecord, NodeRecord};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashSet;

/// Chunks the key-universe scan splits into; boundaries depend only on
/// the record count, and the per-chunk key lists are sorted + deduped
/// afterwards, so the universe is identical for any thread count.
const KEY_SCAN_SHARDS: usize = 64;

/// Collect the sorted, deduplicated universe of property keys over
/// `records`, scanning chunks in parallel.
fn key_universe<R: Sync>(records: &[R], keys_of: impl Fn(&R) -> Vec<Symbol> + Sync) -> Vec<Symbol> {
    let shard = records.len().div_ceil(KEY_SCAN_SHARDS).max(1);
    // Dedup inside each shard first: the distinct-key set is tiny
    // compared to the occurrence count, so this avoids materializing
    // (and sorting) one Symbol clone per occurrence. The union of
    // per-shard sets is order-independent, so the final sort still
    // yields a thread-count-invariant universe.
    let chunks: Vec<HashSet<Symbol>> = records
        .par_chunks(shard)
        .map(|chunk| chunk.iter().flat_map(&keys_of).collect())
        .collect();
    let mut keys: Vec<Symbol> = chunks
        .into_iter()
        .reduce(|mut a, b| {
            a.extend(b);
            a
        })
        .unwrap_or_default()
        .into_iter()
        .collect();
    keys.sort();
    keys
}

/// Namespace tags that keep MinHash set elements of different roles
/// disjoint (a property key can never collide with a label token).
const NS_NODE_KEY: u64 = 1 << 56;
const NS_EDGE_KEY: u64 = 2 << 56;
const NS_LABEL: u64 = 3 << 56;
const NS_SRC_LABEL: u64 = 4 << 56;
const NS_TGT_LABEL: u64 = 5 << 56;

/// Weight of the label-embedding blocks relative to the binary property
/// bits. A weight > 1 widens the gap between structurally identical
/// types that differ only in label — §4.1: the hybrid representation
/// "prevents semantically different nodes, or edges, from being merged
/// due to their same structure". With unit-norm embeddings, distinct
/// labels end up ≥ `LABEL_WEIGHT` apart while within-type (same-label)
/// distance is governed by property noise alone.
const LABEL_WEIGHT: f64 = 2.0;

/// Everything featurization needs to know about one label set, computed
/// once per *distinct* set instead of once per record: the nonzero
/// entries of its (weighted) embedding block and the 48-bit hash of its
/// canonical token. Caching this is what lets the edge path stop
/// allocating three fresh canonical-token `String`s per edge.
#[derive(Debug, Clone)]
struct LabelInfo {
    /// `(index within the embedding block, LABEL_WEIGHT · x)` for each
    /// nonzero embedding coordinate, in increasing index order — exactly
    /// the entries the uncached path would push.
    entries: Vec<(u32, f64)>,
    /// `hash48(canonical_token)`, `None` for the empty label set.
    token_hash: Option<u64>,
}

fn label_info_for(embedder: &dyn LabelEmbedder, labels: &LabelSet) -> LabelInfo {
    let token = labels.canonical_token();
    let emb = embedder.embed_opt(token.as_deref());
    let entries = emb
        .iter()
        .enumerate()
        .filter(|&(_, &x)| x != 0.0)
        .map(|(i, &x)| (i as u32, LABEL_WEIGHT * x))
        .collect();
    LabelInfo {
        entries,
        token_hash: token.as_deref().map(hash48),
    }
}

/// The property-key set of a fingerprint. When the batch key universe
/// holds at most 128 keys — essentially always — the set is a bitmask
/// over key ids, making the whole fingerprint a couple of machine words
/// with no per-record allocation. The list fallback keeps correctness
/// for pathological universes. A batch uses one variant exclusively
/// (chosen by universe size), so equality never crosses variants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyBits {
    Mask(u128),
    List(Vec<u32>),
}

impl KeyBits {
    fn collect<'a>(
        idx: &FnvHashMap<Symbol, u32>,
        universe_len: usize,
        keys: impl Iterator<Item = &'a Symbol>,
    ) -> KeyBits {
        if universe_len <= 128 {
            let mut mask = 0u128;
            for k in keys {
                if let Some(&i) = idx.get(k) {
                    mask |= 1u128 << i;
                }
            }
            KeyBits::Mask(mask)
        } else {
            let mut list = Vec::new();
            // `props` is a BTreeMap and the key universe is sorted, so
            // ids come out ascending without an explicit sort.
            list.extend(keys.filter_map(|k| idx.get(k).copied()));
            KeyBits::List(list)
        }
    }

    fn count(&self) -> usize {
        match self {
            KeyBits::Mask(m) => m.count_ones() as usize,
            KeyBits::List(v) => v.len(),
        }
    }

    /// Visit the key ids in ascending order (bit order == id order).
    fn for_each(&self, mut f: impl FnMut(u32)) {
        match self {
            KeyBits::Mask(m) => {
                let mut m = *m;
                while m != 0 {
                    f(m.trailing_zeros());
                    m &= m - 1;
                }
            }
            KeyBits::List(v) => {
                for &i in v {
                    f(i);
                }
            }
        }
    }
}

/// A node's structural fingerprint: everything its feature vector (and
/// MinHash set) depends on. Records with equal fingerprints get
/// bit-identical representations, which is what makes the dedup fast
/// path lossless. Label sets are interned to dense per-batch ids and
/// key sets to bitmasks, so building, hashing and comparing
/// fingerprints touches only integers — this is what keeps the grouping
/// pass cheap at millions of records.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeFingerprint {
    labels: u32,
    keys: KeyBits,
}

/// An edge's structural fingerprint: interned edge + endpoint label set
/// ids and the present property-key set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeFingerprint {
    labels: u32,
    src_labels: u32,
    tgt_labels: u32,
    keys: KeyBits,
}

/// The per-batch feature space: key universes, trained embedder, and the
/// per-distinct-label-set cache (`label_idx` interns each of the batch's
/// label sets to a dense id; `label_infos[id]` holds its embedding
/// entries and canonical-token hash).
pub struct FeatureSpace {
    node_keys: Vec<Symbol>,
    node_key_idx: FnvHashMap<Symbol, u32>,
    edge_keys: Vec<Symbol>,
    edge_key_idx: FnvHashMap<Symbol, u32>,
    embedder: Box<dyn LabelEmbedder>,
    label_idx: FnvHashMap<LabelSet, u32>,
    label_infos: Vec<LabelInfo>,
}

impl FeatureSpace {
    /// Build the feature space for one batch: collect the distinct node
    /// and edge property keys, then train (or instantiate) the label
    /// embedder on the batch's label corpus.
    pub fn build(
        nodes: &[NodeRecord],
        edges: &[EdgeRecord],
        embedding: &EmbeddingKind,
        seed: u64,
    ) -> FeatureSpace {
        let node_keys = key_universe(nodes, |n| n.props.keys().cloned().collect());
        let edge_keys = key_universe(edges, |e| e.edge.props.keys().cloned().collect());

        // One scan of the records interns every label set — node labels
        // plus all three edge roles — and yields both the embedder's
        // training corpus and the batch's distinct-set table.
        let corpus = build_sentences(nodes, edges);
        let embedder: Box<dyn LabelEmbedder> = match embedding {
            EmbeddingKind::Word2Vec(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed ^= seed;
                Box::new(Word2Vec::train(&corpus, &cfg))
            }
            EmbeddingKind::Hashed { dim } => Box::new(HashedEmbedder::new(*dim, seed)),
        };

        let node_key_idx = node_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        let edge_key_idx = edge_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();

        // Each distinct label set is embedded once. Ids follow sorted
        // order, not the corpus's first-occurrence order, so they do not
        // depend on record order.
        let mut sets: Vec<LabelSet> = corpus.label_sets().to_vec();
        sets.sort();
        let label_infos: Vec<LabelInfo> = sets
            .iter()
            .map(|ls| label_info_for(embedder.as_ref(), ls))
            .collect();
        let label_idx = sets
            .into_iter()
            .enumerate()
            .map(|(i, ls)| (ls, i as u32))
            .collect();

        FeatureSpace {
            node_keys,
            node_key_idx,
            edge_keys,
            edge_key_idx,
            embedder,
            label_idx,
            label_infos,
        }
    }

    /// Cached info for a label set; falls back to computing it on the
    /// fly for sets outside the batch (e.g. memoization probes against a
    /// space built from an earlier batch).
    fn label_info(&self, labels: &LabelSet) -> Cow<'_, LabelInfo> {
        match self.label_idx.get(labels) {
            Some(&i) => Cow::Borrowed(&self.label_infos[i as usize]),
            None => Cow::Owned(label_info_for(self.embedder.as_ref(), labels)),
        }
    }

    /// The interned id of a batch label set. Fingerprints are only taken
    /// of the records the space was built from, so the lookup is total.
    fn label_id(&self, labels: &LabelSet) -> u32 {
        *self
            .label_idx
            .get(labels)
            .expect("fingerprinted label set was registered at build time")
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.embedder.dim()
    }

    /// Node vector dimensionality `d + K`.
    pub fn node_dim(&self) -> usize {
        self.dim() + self.node_keys.len()
    }

    /// Edge vector dimensionality `3d + Q`.
    pub fn edge_dim(&self) -> usize {
        3 * self.dim() + self.edge_keys.len()
    }

    /// The structural fingerprint of a node. Two nodes with equal
    /// fingerprints produce bit-identical [`Self::node_vector`] /
    /// [`Self::node_set`] outputs (values never enter either).
    pub fn node_fingerprint(&self, node: &NodeRecord) -> NodeFingerprint {
        NodeFingerprint {
            labels: self.label_id(&node.labels),
            keys: KeyBits::collect(&self.node_key_idx, self.node_keys.len(), node.props.keys()),
        }
    }

    /// The structural fingerprint of an edge record.
    pub fn edge_fingerprint(&self, rec: &EdgeRecord) -> EdgeFingerprint {
        EdgeFingerprint {
            labels: self.label_id(&rec.edge.labels),
            src_labels: self.label_id(&rec.src_labels),
            tgt_labels: self.label_id(&rec.tgt_labels),
            keys: KeyBits::collect(
                &self.edge_key_idx,
                self.edge_keys.len(),
                rec.edge.props.keys(),
            ),
        }
    }

    /// `f_v ∈ R^{d+K}` for one node.
    pub fn node_vector(&self, node: &NodeRecord) -> SparseVec {
        let d = self.dim();
        let info = self.label_info(&node.labels);
        // Exact: every cached entry is nonzero and every present key in
        // the universe adds one bit (label block and key block are
        // disjoint index ranges). Unknown keys over-reserve by one slot
        // each — they only occur for records outside the batch.
        let mut entries: Vec<(u32, f64)> =
            Vec::with_capacity(info.entries.len() + node.props.len());
        entries.extend_from_slice(&info.entries);
        for k in node.props.keys() {
            if let Some(&idx) = self.node_key_idx.get(k) {
                entries.push((d as u32 + idx, 1.0));
            }
        }
        SparseVec::new(self.node_dim(), entries)
    }

    /// [`Self::node_vector`] from a fingerprint — the dedup path
    /// featurizes each distinct fingerprint exactly once. Sized exactly:
    /// fingerprint keys are already resolved against the universe.
    pub fn node_fingerprint_vector(&self, fp: &NodeFingerprint) -> SparseVec {
        let d = self.dim();
        let info = &self.label_infos[fp.labels as usize];
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(info.entries.len() + fp.keys.count());
        entries.extend_from_slice(&info.entries);
        fp.keys.for_each(|idx| entries.push((d as u32 + idx, 1.0)));
        SparseVec::new(self.node_dim(), entries)
    }

    /// `f_e ∈ R^{3d+Q}` for one edge record.
    pub fn edge_vector(&self, rec: &EdgeRecord) -> SparseVec {
        let d = self.dim();
        let infos = [
            self.label_info(&rec.edge.labels),
            self.label_info(&rec.src_labels),
            self.label_info(&rec.tgt_labels),
        ];
        let emb_nnz: usize = infos.iter().map(|i| i.entries.len()).sum();
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(emb_nnz + rec.edge.props.len());
        for (b, info) in infos.iter().enumerate() {
            let base = (b * d) as u32;
            for &(i, x) in &info.entries {
                entries.push((base + i, x));
            }
        }
        for k in rec.edge.props.keys() {
            if let Some(&idx) = self.edge_key_idx.get(k) {
                entries.push((3 * d as u32 + idx, 1.0));
            }
        }
        SparseVec::new(self.edge_dim(), entries)
    }

    /// [`Self::edge_vector`] from a fingerprint, sized exactly.
    pub fn edge_fingerprint_vector(&self, fp: &EdgeFingerprint) -> SparseVec {
        let d = self.dim();
        let infos = [
            &self.label_infos[fp.labels as usize],
            &self.label_infos[fp.src_labels as usize],
            &self.label_infos[fp.tgt_labels as usize],
        ];
        let emb_nnz: usize = infos.iter().map(|i| i.entries.len()).sum();
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(emb_nnz + fp.keys.count());
        for (b, info) in infos.iter().enumerate() {
            let base = (b * d) as u32;
            for &(i, x) in &info.entries {
                entries.push((base + i, x));
            }
        }
        fp.keys
            .for_each(|idx| entries.push((3 * d as u32 + idx, 1.0)));
        SparseVec::new(self.edge_dim(), entries)
    }

    /// MinHash set representation of a node: property-key ids plus the
    /// label token (namespaced).
    pub fn node_set(&self, node: &NodeRecord) -> Vec<u64> {
        let mut set: Vec<u64> = node
            .props
            .keys()
            .filter_map(|k| self.node_key_idx.get(k))
            .map(|&i| NS_NODE_KEY | i as u64)
            .collect();
        if let Some(h) = self.label_info(&node.labels).token_hash {
            set.push(NS_LABEL | h);
        }
        set
    }

    /// [`Self::node_set`] from a fingerprint.
    pub fn node_fingerprint_set(&self, fp: &NodeFingerprint) -> Vec<u64> {
        let mut set: Vec<u64> = Vec::with_capacity(fp.keys.count() + 1);
        fp.keys.for_each(|i| set.push(NS_NODE_KEY | i as u64));
        if let Some(h) = self.label_infos[fp.labels as usize].token_hash {
            set.push(NS_LABEL | h);
        }
        set
    }

    /// MinHash set representation of an edge: property-key ids plus the
    /// edge/source/target label tokens (each in its own namespace).
    pub fn edge_set(&self, rec: &EdgeRecord) -> Vec<u64> {
        let mut set: Vec<u64> = rec
            .edge
            .props
            .keys()
            .filter_map(|k| self.edge_key_idx.get(k))
            .map(|&i| NS_EDGE_KEY | i as u64)
            .collect();
        if let Some(h) = self.label_info(&rec.edge.labels).token_hash {
            set.push(NS_LABEL | h);
        }
        if let Some(h) = self.label_info(&rec.src_labels).token_hash {
            set.push(NS_SRC_LABEL | h);
        }
        if let Some(h) = self.label_info(&rec.tgt_labels).token_hash {
            set.push(NS_TGT_LABEL | h);
        }
        set
    }

    /// [`Self::edge_set`] from a fingerprint.
    pub fn edge_fingerprint_set(&self, fp: &EdgeFingerprint) -> Vec<u64> {
        let mut set: Vec<u64> = Vec::with_capacity(fp.keys.count() + 3);
        fp.keys.for_each(|i| set.push(NS_EDGE_KEY | i as u64));
        if let Some(h) = self.label_infos[fp.labels as usize].token_hash {
            set.push(NS_LABEL | h);
        }
        if let Some(h) = self.label_infos[fp.src_labels as usize].token_hash {
            set.push(NS_SRC_LABEL | h);
        }
        if let Some(h) = self.label_infos[fp.tgt_labels as usize].token_hash {
            set.push(NS_TGT_LABEL | h);
        }
        set
    }
}

/// FNV-1a truncated to 48 bits so namespace tags survive in the top byte.
fn hash48(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h & ((1 << 48) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_embed::Word2VecConfig;
    use pg_model::{Edge, LabelSet, Node, NodeId};

    fn records() -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
        let nodes = vec![
            Node::new(1, LabelSet::single("Person"))
                .with_prop("name", "a")
                .with_prop("age", 3i64),
            Node::new(2, LabelSet::empty()).with_prop("name", "b"),
            Node::new(3, LabelSet::single("Org")).with_prop("url", "u"),
        ];
        let edges = vec![EdgeRecord {
            edge: Edge::new(9, NodeId(1), NodeId(3), LabelSet::single("WORKS_AT"))
                .with_prop("from", 2020i64),
            src_labels: LabelSet::single("Person"),
            tgt_labels: LabelSet::single("Org"),
        }];
        (nodes, edges)
    }

    fn space() -> (FeatureSpace, Vec<NodeRecord>, Vec<EdgeRecord>) {
        let (nodes, edges) = records();
        let fs = FeatureSpace::build(
            &nodes,
            &edges,
            &EmbeddingKind::Word2Vec(Word2VecConfig {
                dim: 5,
                epochs: 2,
                ..Default::default()
            }),
            1,
        );
        (fs, nodes, edges)
    }

    #[test]
    fn dimensions_match_paper_formulas() {
        let (fs, _, _) = space();
        // K = {age, name, url} → 3; Q = {from} → 1; d = 5.
        assert_eq!(fs.node_dim(), 5 + 3);
        assert_eq!(fs.edge_dim(), 15 + 1);
    }

    #[test]
    fn unlabeled_nodes_have_zero_embedding_block() {
        let (fs, nodes, _) = space();
        let v = fs.node_vector(&nodes[1]); // unlabeled
        for (i, x) in v.iter() {
            assert!(
                (i as usize) >= fs.dim(),
                "embedding block must be zero, found ({i}, {x})"
            );
        }
        // But the binary block has the `name` bit set.
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    fn identical_structures_give_identical_vectors() {
        let (fs, _, _) = space();
        let a = Node::new(10, LabelSet::single("Person"))
            .with_prop("name", "x")
            .with_prop("age", 1i64);
        let b = Node::new(11, LabelSet::single("Person"))
            .with_prop("name", "yyy")
            .with_prop("age", 999i64);
        // Property *values* don't matter, only presence.
        assert_eq!(fs.node_vector(&a), fs.node_vector(&b));
    }

    #[test]
    fn different_labels_differ_in_embedding_block() {
        let (fs, nodes, _) = space();
        let person = fs.node_vector(&nodes[0]);
        let mut org = nodes[2].clone();
        // Give Org the same property structure as Person.
        org.props = nodes[0].props.clone();
        let org_v = fs.node_vector(&org);
        assert!(person.distance(&org_v) > 0.1);
    }

    #[test]
    fn edge_vectors_use_three_blocks() {
        let (fs, _, edges) = space();
        let v = fs.edge_vector(&edges[0]);
        let d = fs.dim();
        let blocks: Vec<usize> = v
            .iter()
            .map(|(i, _)| (i as usize) / d)
            .filter(|&b| b < 3)
            .collect();
        // All three embedding blocks are populated (labeled endpoints).
        assert!(blocks.contains(&0));
        assert!(blocks.contains(&1));
        assert!(blocks.contains(&2));
    }

    #[test]
    fn minhash_sets_are_namespaced() {
        let (fs, nodes, edges) = space();
        let ns: Vec<u64> = fs.node_set(&nodes[0]);
        assert_eq!(ns.len(), 3); // 2 keys + 1 label token
        let es = fs.edge_set(&edges[0]);
        assert_eq!(es.len(), 4); // 1 key + 3 label tokens
                                 // Node key ids and edge key ids never collide.
        for a in &ns {
            for b in &es {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn unknown_key_is_ignored_gracefully() {
        let (fs, _, _) = space();
        let alien = Node::new(99, LabelSet::empty()).with_prop("never_seen", 1i64);
        // Key not in the batch universe: vector just has no bit for it.
        let v = fs.node_vector(&alien);
        assert_eq!(v.nnz(), 0);
        assert!(fs.node_set(&alien).is_empty());
    }

    #[test]
    fn fingerprint_representations_match_record_representations() {
        // The dedup fast path builds vectors/sets from fingerprints; they
        // must be bit-identical to the per-record builders.
        let (fs, nodes, edges) = space();
        for n in &nodes {
            let fp = fs.node_fingerprint(n);
            assert_eq!(fs.node_fingerprint_vector(&fp), fs.node_vector(n));
            assert_eq!(fs.node_fingerprint_set(&fp), fs.node_set(n));
        }
        for e in &edges {
            let fp = fs.edge_fingerprint(e);
            assert_eq!(fs.edge_fingerprint_vector(&fp), fs.edge_vector(e));
            assert_eq!(fs.edge_fingerprint_set(&fp), fs.edge_set(e));
        }
    }

    #[test]
    fn fingerprints_ignore_values_but_not_structure() {
        let (fs, _, _) = space();
        let a = Node::new(1, LabelSet::single("Person"))
            .with_prop("name", "x")
            .with_prop("age", 1i64);
        let b = Node::new(2, LabelSet::single("Person"))
            .with_prop("name", "completely different")
            .with_prop("age", 999i64);
        assert_eq!(fs.node_fingerprint(&a), fs.node_fingerprint(&b));
        // Dropping a property or changing the label breaks equality.
        let fewer = Node::new(3, LabelSet::single("Person")).with_prop("name", "x");
        assert_ne!(fs.node_fingerprint(&a), fs.node_fingerprint(&fewer));
        let other = Node::new(4, LabelSet::single("Org"))
            .with_prop("name", "x")
            .with_prop("age", 1i64);
        assert_ne!(fs.node_fingerprint(&a), fs.node_fingerprint(&other));
    }

    #[test]
    fn foreign_label_sets_fall_back_to_uncached_info() {
        // A label set the space never saw (memoization probes do this)
        // still featurizes through the uncached fallback.
        let (fs, _, _) = space();
        let foreign = Node::new(7, LabelSet::single("NeverSeen")).with_prop("name", "n");
        let v = fs.node_vector(&foreign);
        assert!(v.nnz() >= 1, "name bit survives; embedding may add more");
    }

    #[test]
    #[should_panic(expected = "registered at build time")]
    fn fingerprinting_foreign_label_sets_is_a_contract_violation() {
        // Fingerprints intern label sets to per-batch ids, so they are
        // only defined for the records the space was built from — the
        // dedup path never fingerprints anything else.
        let (fs, _, _) = space();
        let foreign = Node::new(7, LabelSet::single("NeverSeen")).with_prop("name", "n");
        let _ = fs.node_fingerprint(&foreign);
    }
}
