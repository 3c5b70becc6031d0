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
//!
//! Both are written once over [`Record`]: a record has `ROLES` label
//! sets (1 or 3) and reads one key universe, so `f` has a label block at
//! `r·d` for each role `r` and the key bits at `ROLES·d`.

use crate::checkpoint::{EmbedderRows, F64Bits};
use crate::config::{EmbeddingKind, HiveConfig, LshMethod};
use crate::state::{Kind, Record};
use pg_embed::{
    build_sentences, HashedEmbedder, LabelCorpus, LabelEmbedder, Word2Vec, Word2VecConfig,
};
use pg_lsh::adaptive::ElementKind;
use pg_lsh::{FnvHashMap, SparseVec};
use pg_model::{LabelSet, PropMap, Symbol};
use pg_store::{EdgeRecord, NodeRecord};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Deref;

/// Chunks the key-universe scan splits into; boundaries depend only on
/// the record count, and the per-chunk key lists are sorted + deduplicated
/// afterwards, so the universe is identical for any thread count.
const KEY_SCAN_SHARDS: usize = 64;

/// Namespace tags that keep MinHash set elements of different universes
/// and roles disjoint (a property key can never collide with a label
/// token, nor an edge's own label with its source's).
const NS_NODE_KEY: u64 = 1 << 56;
const NS_EDGE_KEY: u64 = 2 << 56;
/// By role: own, source, target label token.
const NS_LABEL: [u64; 3] = [3 << 56, 4 << 56, 5 << 56];

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
    fn count(&self) -> usize {
        match self {
            KeyBits::Mask(m) => m.count_ones() as usize,
            KeyBits::List(v) => v.len(),
        }
    }

    /// The key ids in ascending order (bit order == id order).
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let (mut mask, list) = match self {
            KeyBits::Mask(m) => (*m, &[][..]),
            KeyBits::List(v) => (0, v.as_slice()),
        };
        let bits = std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let i = mask.trailing_zeros();
                mask &= mask - 1;
                i
            })
        });
        bits.chain(list.iter().copied())
    }
}

/// One kind's property-key universe for the batch: every distinct key's
/// dense id, in sorted key order, and the MinHash namespace its ids live
/// in.
struct KeySpace {
    ids: FnvHashMap<Symbol, u32>,
    ns: u64,
}

impl KeySpace {
    /// Collect the sorted, deduplicated universe of property keys over
    /// `records`, scanning chunks in parallel.
    fn scan<R: Record>(records: &[R], ns: u64) -> KeySpace {
        let shard = records.len().div_ceil(KEY_SCAN_SHARDS).max(1);
        // Dedup inside each shard first: the distinct-key set is tiny
        // compared to the occurrence count, so this avoids materializing
        // (and sorting) one Symbol clone per occurrence. The union of
        // per-shard sets is order-independent, so the final sort still
        // yields a thread-count-invariant universe.
        let chunks: Vec<HashSet<Symbol>> = records
            .par_chunks(shard)
            .map(|chunk| {
                let keys = chunk.iter().flat_map(|r| r.instance().props().keys());
                keys.cloned().collect()
            })
            .collect();
        let mut keys: Vec<Symbol> = chunks.into_iter().flatten().collect();
        keys.sort();
        keys.dedup();
        let ids = keys.into_iter().zip(0..).collect();
        KeySpace { ids, ns }
    }

    /// The ids of a record's keys, ascending: `props` is key-sorted and
    /// so is the universe. Keys outside it (a record from outside the
    /// batch) have no id and are skipped.
    fn ids_of<'a>(&'a self, props: &'a PropMap) -> impl Iterator<Item = u32> + 'a {
        props.keys().filter_map(|k| self.ids.get(k).copied())
    }

    fn bits(&self, props: &PropMap) -> KeyBits {
        if self.ids.len() <= 128 {
            KeyBits::Mask(self.ids_of(props).fold(0, |mask, i| mask | 1u128 << i))
        } else {
            KeyBits::List(self.ids_of(props).collect())
        }
    }
}

/// A record's structural fingerprint: everything its feature vector (and
/// MinHash set) depends on. Records with equal fingerprints get
/// bit-identical representations, which is what makes the dedup fast
/// path lossless. Label sets are interned to dense per-batch ids and
/// key sets to bitmasks, so building, hashing and comparing
/// fingerprints touches only integers — this is what keeps the grouping
/// pass cheap at millions of records.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Interned label-set id per role (own, source, target); roles the
    /// kind lacks stay 0.
    labels: [u32; 3],
    keys: KeyBits,
}

/// A session's label embedder: made once, lent to the feature space of
/// every batch, and carried by the session's checkpoints, so one token
/// has one vector for as long as the session lives (§4.1 trains on *the
/// graph's* label corpus; a session sees that corpus a batch at a time).
#[derive(Debug, Clone)]
pub enum Embedder {
    /// Word2Vec, trained once, by the first batch that carries a label —
    /// a single-batch run trains as ever — and frozen from then on. A
    /// token that arrives later embeds to the model's deterministic
    /// out-of-vocabulary vector, the identity direction every trained
    /// row is blended with: as far from every other token as a trained
    /// one, and nothing left to train (DESIGN.md §3k has the measurements
    /// that chose this over training late tokens against the frozen rows).
    Word2Vec {
        /// What the model trains under, the session's seed folded in.
        cfg: Word2VecConfig,
        /// Empty until trained: every token is out of vocabulary.
        model: Word2Vec,
    },
    /// Training-free hashed unit vectors.
    Hashed(HashedEmbedder),
}

impl Embedder {
    /// The embedder `embedding` asks for, untrained, drawing from `seed`.
    pub fn new(embedding: &EmbeddingKind, seed: u64) -> Embedder {
        match embedding {
            EmbeddingKind::Word2Vec(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed ^= seed;
                let model = Word2Vec::train(&LabelCorpus::default(), &cfg);
                Embedder::Word2Vec { cfg, model }
            }
            EmbeddingKind::Hashed { dim } => Embedder::Hashed(HashedEmbedder::new(*dim, seed)),
        }
    }

    /// The embedder of a session under `config`. MinHash hashes label
    /// tokens and reads no vector ([`FeatureSpace::fingerprint_set`]), so
    /// there nothing is trained whatever the embedding.
    pub fn for_session(config: &HiveConfig) -> Embedder {
        match (&config.embedding, config.method) {
            (EmbeddingKind::Word2Vec(cfg), LshMethod::MinHash) => {
                Embedder::Hashed(HashedEmbedder::new(cfg.dim, config.seed))
            }
            (embedding, _) => Embedder::new(embedding, config.seed),
        }
    }

    /// Scan one batch's records once, interning every label set — node
    /// labels plus all three edge roles — into the batch's label corpus,
    /// and train on it if nothing has trained the model yet.
    fn learn(&mut self, nodes: &[NodeRecord], edges: &[EdgeRecord]) -> LabelCorpus {
        let corpus = build_sentences(nodes, edges);
        if let Embedder::Word2Vec { cfg, model } = self {
            if model.vocab_size() == 0 {
                *model = Word2Vec::train(&corpus, cfg);
            }
        }
        corpus
    }

    fn get(&self) -> &dyn LabelEmbedder {
        match self {
            Embedder::Word2Vec { model, .. } => model,
            Embedder::Hashed(hashed) => hashed,
        }
    }

    /// What a checkpoint must carry for [`Embedder::restore`] to rebuild
    /// this embedder bit for bit: the rows of a trained model. `None`
    /// while there is none — an untrained model and the hashed vectors
    /// are functions of the configuration alone.
    pub fn rows(&self) -> Option<EmbedderRows> {
        let Embedder::Word2Vec { model, .. } = self else {
            return None;
        };
        let (tokens, vectors) = model.rows();
        (!tokens.is_empty()).then(|| EmbedderRows {
            tokens: tokens.into_iter().map(str::to_owned).collect(),
            vectors: F64Bits(vectors.to_vec()),
        })
    }

    /// Take up the rows an embedder of this configuration wrote. Rows of
    /// another shape — a checkpoint written under another embedding —
    /// are left aside: the embedder stays untrained and trains at its
    /// next batch, as it does after a checkpoint that carries none.
    pub fn restore(&mut self, rows: EmbedderRows) {
        if let Embedder::Word2Vec { cfg, model } = self {
            if let Some(restored) = Word2Vec::from_rows(cfg, rows.tokens, rows.vectors.0) {
                *model = restored;
            }
        }
    }
}

/// The per-batch feature space: key universes, the embedder lent to it,
/// and the per-distinct-label-set cache (`label_idx` interns each of the
/// batch's label sets to a dense id; `label_infos[id]` holds its
/// embedding entries and canonical-token hash).
pub struct FeatureSpace<'e> {
    node_keys: KeySpace,
    edge_keys: KeySpace,
    embedder: Cow<'e, Embedder>,
    label_idx: FnvHashMap<LabelSet, u32>,
    label_infos: Vec<LabelInfo>,
}

impl<'e> FeatureSpace<'e> {
    /// The feature space of a batch that is all there is: as
    /// [`FeatureSpace::with_embedder`], over a fresh embedder of its own.
    pub fn build(
        nodes: &[NodeRecord],
        edges: &[EdgeRecord],
        embedding: &EmbeddingKind,
        seed: u64,
    ) -> FeatureSpace<'static> {
        let mut embedder = Embedder::new(embedding, seed);
        let corpus = embedder.learn(nodes, edges);
        FeatureSpace::over(nodes, edges, &corpus, Cow::Owned(embedder))
    }

    /// Build the feature space for one batch of a session: lend it the
    /// session's embedder — which this batch trains, if it is the first
    /// to carry a label — and collect the distinct node and edge
    /// property keys.
    pub fn with_embedder(
        nodes: &[NodeRecord],
        edges: &[EdgeRecord],
        embedder: &'e mut Embedder,
    ) -> FeatureSpace<'e> {
        let corpus = embedder.learn(nodes, edges);
        FeatureSpace::over(nodes, edges, &corpus, Cow::Borrowed(embedder))
    }

    fn over(
        nodes: &[NodeRecord],
        edges: &[EdgeRecord],
        corpus: &LabelCorpus,
        embedder: Cow<'e, Embedder>,
    ) -> FeatureSpace<'e> {
        // Each distinct label set is embedded once. Ids follow sorted
        // order, not the corpus's first-occurrence order, so they do not
        // depend on record order.
        let mut sets: Vec<LabelSet> = corpus.label_sets().to_vec();
        sets.sort();
        let label_infos: Vec<LabelInfo> = sets
            .iter()
            .map(|ls| label_info_for(embedder.get(), ls))
            .collect();
        FeatureSpace {
            node_keys: KeySpace::scan(nodes, NS_NODE_KEY),
            edge_keys: KeySpace::scan(edges, NS_EDGE_KEY),
            embedder,
            label_idx: sets.into_iter().zip(0..).collect(),
            label_infos,
        }
    }

    fn key_space<R: Record>(&self) -> &KeySpace {
        match R::ELEMENT {
            ElementKind::Node => &self.node_keys,
            ElementKind::Edge => &self.edge_keys,
        }
    }

    /// Cached info for a label set; falls back to computing it on the
    /// fly for a set outside the batch.
    fn label_info(&self, labels: &LabelSet) -> Cow<'_, LabelInfo> {
        match self.label_idx.get(labels) {
            Some(&i) => Cow::Borrowed(&self.label_infos[i as usize]),
            None => Cow::Owned(label_info_for(self.embedder.get(), labels)),
        }
    }

    /// Embedding dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.embedder.get().dim()
    }

    /// Vector dimensionality of `R`: `d + K` for nodes, `3d + Q` for
    /// edges.
    pub fn dim_of<R: Record>(&self) -> usize {
        R::ROLES * self.dim() + self.key_space::<R>().ids.len()
    }

    /// The structural fingerprint of a record. Two records with equal
    /// fingerprints produce bit-identical [`Self::vector`] /
    /// [`Self::set`] outputs (values never enter either). Fingerprints
    /// are only taken of the records the space was built from, so the
    /// label-set lookup is total.
    pub fn fingerprint<R: Record>(&self, rec: &R) -> Fingerprint {
        let mut labels = [0; 3];
        for (r, id) in labels.iter_mut().enumerate().take(R::ROLES) {
            *id = *self
                .label_idx
                .get(rec.role(r))
                .expect("fingerprinted label set was registered at build time");
        }
        Fingerprint {
            labels,
            keys: self.key_space::<R>().bits(rec.instance().props()),
        }
    }

    /// `f_v ∈ R^{d+K}` / `f_e ∈ R^{3d+Q}` for one record.
    pub fn vector<R: Record>(&self, rec: &R) -> SparseVec {
        let props = rec.instance().props();
        let keys = self.key_space::<R>().ids_of(props);
        // Keys outside the universe over-reserve by one slot each — they
        // only occur for records outside the batch.
        self.hybrid_vector::<R, _>(|r| self.label_info(rec.role(r)), keys, props.len())
    }

    /// [`Self::vector`] from a fingerprint — the dedup path featurizes
    /// each distinct fingerprint exactly once.
    pub fn fingerprint_vector<R: Record>(&self, fp: &Fingerprint) -> SparseVec {
        self.hybrid_vector::<R, _>(|r| self.fp_info(fp, r), fp.keys.iter(), fp.keys.count())
    }

    /// MinHash set representation of a record: property-key ids plus
    /// the label token of each role, each in its own namespace.
    pub fn set<R: Record>(&self, rec: &R) -> Vec<u64> {
        let props = rec.instance().props();
        let keys = self.key_space::<R>().ids_of(props);
        self.token_set::<R, _>(|r| self.label_info(rec.role(r)), keys, props.len())
    }

    /// [`Self::set`] from a fingerprint.
    pub fn fingerprint_set<R: Record>(&self, fp: &Fingerprint) -> Vec<u64> {
        self.token_set::<R, _>(|r| self.fp_info(fp, r), fp.keys.iter(), fp.keys.count())
    }

    fn fp_info(&self, fp: &Fingerprint, role: usize) -> &LabelInfo {
        &self.label_infos[fp.labels[role] as usize]
    }

    /// Role `r`'s weighted embedding entries at `r·d`, then one bit per
    /// present key id at `ROLES·d`. Sized exactly when every one of the
    /// `n_keys` keys has an id: every cached entry is nonzero, and the
    /// label blocks and the key block are disjoint index ranges.
    fn hybrid_vector<R: Record, I: Deref<Target = LabelInfo>>(
        &self,
        info: impl Fn(usize) -> I,
        key_ids: impl Iterator<Item = u32>,
        n_keys: usize,
    ) -> SparseVec {
        let d = self.dim() as u32;
        let emb_nnz: usize = (0..R::ROLES).map(|r| info(r).entries.len()).sum();
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(emb_nnz + n_keys);
        for r in 0..R::ROLES {
            let base = r as u32 * d;
            entries.extend(info(r).entries.iter().map(|&(i, x)| (base + i, x)));
        }
        let base = R::ROLES as u32 * d;
        entries.extend(key_ids.map(|i| (base + i, 1.0)));
        SparseVec::new(self.dim_of::<R>(), entries)
    }

    /// The key ids in the kind's namespace, then each labeled role's
    /// token hash in the role's.
    fn token_set<R: Record, I: Deref<Target = LabelInfo>>(
        &self,
        info: impl Fn(usize) -> I,
        key_ids: impl Iterator<Item = u32>,
        n_keys: usize,
    ) -> Vec<u64> {
        let ns = self.key_space::<R>().ns;
        let mut set: Vec<u64> = Vec::with_capacity(n_keys + R::ROLES);
        set.extend(key_ids.map(|i| ns | i as u64));
        set.extend((0..R::ROLES).filter_map(|r| Some(NS_LABEL[r] | info(r).token_hash?)));
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
    use pg_model::{Edge, LabelSet, Node, NodeId};

    /// An edge record with `Int` properties.
    fn edge(label: &str, src: &str, tgt: &str, props: &[(&str, i64)]) -> EdgeRecord {
        let edge = Edge::new(9, NodeId(1), NodeId(3), LabelSet::single(label));
        EdgeRecord {
            edge: props.iter().fold(edge, |e, &(k, v)| e.with_prop(k, v)),
            src_labels: LabelSet::single(src),
            tgt_labels: LabelSet::single(tgt),
        }
    }

    fn records() -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
        let nodes = vec![
            Node::new(1, LabelSet::single("Person"))
                .with_prop("name", "a")
                .with_prop("age", 3i64),
            Node::new(2, LabelSet::empty()).with_prop("name", "b"),
            Node::new(3, LabelSet::single("Org")).with_prop("url", "u"),
        ];
        let edges = vec![edge("WORKS_AT", "Person", "Org", &[("from", 2020)])];
        (nodes, edges)
    }

    fn build(nodes: &[NodeRecord], edges: &[EdgeRecord]) -> FeatureSpace<'static> {
        let embedding = EmbeddingKind::Word2Vec(Word2VecConfig {
            dim: 5,
            epochs: 2,
            ..Default::default()
        });
        FeatureSpace::build(nodes, edges, &embedding, 1)
    }

    fn space() -> (FeatureSpace<'static>, Vec<NodeRecord>, Vec<EdgeRecord>) {
        let (nodes, edges) = records();
        (build(&nodes, &edges), nodes, edges)
    }

    /// A batch whose node and edge key universes both exceed 128 keys,
    /// so fingerprints hold their keys as [`KeyBits::List`].
    fn wide_records() -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
        let key = |i: u64| format!("k{:03}", i % 140);
        let node = |i| Node::new(i, LabelSet::single("Wide")).with_prop(&key(i), 1i64);
        let link = |i| edge("LINK", "Wide", "Wide", &[(&key(i), 1), (&key(7 * i), 2)]);
        ((0..140).map(node).collect(), (0..140).map(link).collect())
    }

    #[test]
    fn dimensions_match_paper_formulas() {
        let (fs, _, _) = space();
        // K = {age, name, url} → 3; Q = {from} → 1; d = 5.
        assert_eq!(fs.dim_of::<NodeRecord>(), 5 + 3);
        assert_eq!(fs.dim_of::<EdgeRecord>(), 15 + 1);
    }

    #[test]
    fn unlabeled_nodes_have_zero_embedding_block() {
        let (fs, nodes, _) = space();
        let v = fs.vector(&nodes[1]); // unlabeled
        for (i, x) in v.iter() {
            assert!(
                (i as usize) >= fs.dim(),
                "embedding block must be zero, found ({i}, {x})"
            );
        }
        // But the binary block has the `name` bit set.
        assert_eq!(v.iter().count(), 1);
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
        assert_eq!(fs.vector(&a), fs.vector(&b));
    }

    #[test]
    fn different_labels_differ_in_embedding_block() {
        let (fs, nodes, _) = space();
        let person = fs.vector(&nodes[0]);
        let mut org = nodes[2].clone();
        // Give Org the same property structure as Person.
        org.props = nodes[0].props.clone();
        let org_v = fs.vector(&org);
        assert!(person.distance(&org_v) > 0.1);
    }

    #[test]
    fn edge_vectors_use_three_blocks() {
        let (fs, _, edges) = space();
        let v = fs.vector(&edges[0]);
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
        let ns: Vec<u64> = fs.set(&nodes[0]);
        assert_eq!(ns.len(), 3); // 2 keys + 1 label token
        let es = fs.set(&edges[0]);
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
        let v = fs.vector(&alien);
        assert_eq!(v.iter().count(), 0);
        assert!(fs.set(&alien).is_empty());
    }

    /// The dedup fast path builds vectors/sets from fingerprints; they
    /// must be bit-identical to the per-record builders.
    fn assert_fingerprints_represent<R: Record>(fs: &FeatureSpace, records: &[R]) {
        for rec in records {
            let fp = fs.fingerprint(rec);
            assert_eq!(fs.fingerprint_vector::<R>(&fp), fs.vector(rec));
            assert_eq!(fs.fingerprint_set::<R>(&fp), fs.set(rec));
        }
    }

    #[test]
    fn fingerprint_representations_match_record_representations() {
        let (fs, nodes, edges) = space();
        assert_fingerprints_represent(&fs, &nodes);
        assert_fingerprints_represent(&fs, &edges);

        // One label set in all three roles: one interned id, one
        // embedding — only block offsets and namespaces tell them apart.
        let same = [edge("X", "X", "X", &[])];
        let fs = build(&[], &same);
        assert_fingerprints_represent(&fs, &same);
        let x = hash48("X");
        let tokens = vec![NS_LABEL[0] | x, NS_LABEL[1] | x, NS_LABEL[2] | x];
        assert_eq!(fs.set(&same[0]), tokens);
        let d = fs.dim() as u32;
        let entries: Vec<(u32, f64)> = fs.vector(&same[0]).iter().collect();
        let (own, ends) = entries.split_at(entries.len() / 3);
        let shifted = |by: u32| own.iter().map(move |&(i, x)| (i + by, x));
        assert!(!own.is_empty() && own.iter().all(|e| e.0 < d));
        assert_eq!(ends, shifted(d).chain(shifted(2 * d)).collect::<Vec<_>>());

        // Past 128 keys a fingerprint lists its key ids.
        let (nodes, edges) = wide_records();
        let fs = build(&nodes, &edges);
        assert!(matches!(fs.fingerprint(&nodes[0]).keys, KeyBits::List(_)));
        assert!(matches!(fs.fingerprint(&edges[0]).keys, KeyBits::List(_)));
        assert_fingerprints_represent(&fs, &nodes);
        assert_fingerprints_represent(&fs, &edges);
        // The last key's bit is the last index of either vector.
        let last = |v: SparseVec| v.iter().last().map(|e| e.0 as usize + 1);
        assert_eq!(last(fs.vector(&nodes[139])), Some(5 + 140));
        assert_eq!(last(fs.vector(&edges[139])), Some(15 + 140));
    }

    #[test]
    fn fingerprints_ignore_values_but_not_structure() {
        let person = |id: u64, name: &str, age: i64| {
            Node::new(id, LabelSet::single("Person"))
                .with_prop("name", name)
                .with_prop("age", age)
        };
        // Per kind: two records apart in values only, then records one
        // piece of structure away from them — a dropped property, the
        // label set of each role in turn.
        let nodes = [
            person(1, "x", 1),
            person(2, "completely different", 999),
            Node::new(3, LabelSet::single("Person")).with_prop("name", "x"),
            Node::new(4, LabelSet::single("Org"))
                .with_prop("name", "x")
                .with_prop("age", 1i64),
        ];
        let edges = [
            edge("WORKS_AT", "Person", "Org", &[("from", 2020)]),
            edge("WORKS_AT", "Person", "Org", &[("from", 1999)]),
            edge("WORKS_AT", "Person", "Org", &[]),
            edge("Org", "Person", "Org", &[("from", 2020)]),
            edge("WORKS_AT", "Org", "Org", &[("from", 2020)]),
            edge("WORKS_AT", "Person", "Person", &[("from", 2020)]),
        ];
        let fs = build(&nodes, &edges);
        fn check<R: Record>(fs: &FeatureSpace, records: &[R]) {
            assert_eq!(fs.fingerprint(&records[0]), fs.fingerprint(&records[1]));
            for (i, other) in records.iter().enumerate().skip(2) {
                assert_ne!(fs.fingerprint(&records[0]), fs.fingerprint(other), "{i}");
            }
        }
        check(&fs, &nodes);
        check(&fs, &edges);
    }

    #[test]
    fn foreign_label_sets_fall_back_to_uncached_info() {
        // A label set the space never saw still featurizes through the
        // uncached fallback.
        let (fs, _, _) = space();
        let foreign = Node::new(7, LabelSet::single("NeverSeen")).with_prop("name", "n");
        let v = fs.vector(&foreign);
        assert!(
            v.iter().count() >= 1,
            "name bit survives; embedding may add more"
        );
    }

    #[test]
    #[should_panic(expected = "registered at build time")]
    fn fingerprinting_foreign_label_sets_is_a_contract_violation() {
        // Fingerprints intern label sets to per-batch ids, so they are
        // only defined for the records the space was built from — the
        // dedup path never fingerprints anything else.
        let (fs, _, _) = space();
        let foreign = Node::new(7, LabelSet::single("NeverSeen")).with_prop("name", "n");
        let _ = fs.fingerprint(&foreign);
    }
}
