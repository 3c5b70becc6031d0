//! Bit-identity battery: the shipped `build_sentences` +
//! `Word2Vec::train` against the retained string-keyed reference
//! (`reference/`), over random record sets and configs, plus one pinned
//! digest so that drift across commits — not only between the two
//! implementations — fails a test.

mod reference;

use pg_embed::{build_sentences, LabelCorpus, LabelEmbedder, Word2Vec, Word2VecConfig};
use pg_model::{sym, Edge, LabelSet, Node, NodeId};
use pg_store::{EdgeRecord, NodeRecord};
use proptest::prelude::*;
use reference::{reference_sentences, uniform_records, ReferenceWord2Vec};

/// Never a label: the pool below has no such token.
const OOV: &str = "<never-a-label>";

/// `"A|B"` as a single label collides with the canonical token of
/// `{A, B}`: two distinct label sets, one vocabulary row.
const LABEL_POOL: [&str; 6] = ["A", "B", "C", "D", "E", "A|B"];

/// A label set of 0–3 pool labels in wire order (unsorted, like the
/// JSONL decoder's), so multi-label and order-variant sets occur.
fn label_set() -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(0usize..LABEL_POOL.len(), 0..4)
        .prop_map(|ls| LabelSet::from_wire(ls.into_iter().map(|i| sym(LABEL_POOL[i])).collect()))
}

fn records(
    node_labels: Vec<LabelSet>,
    edge_labels: Vec<(LabelSet, LabelSet, LabelSet)>,
) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    let nodes = node_labels
        .into_iter()
        .enumerate()
        .map(|(i, labels)| Node::new(i as u64, labels))
        .collect();
    let edges = edge_labels
        .into_iter()
        .enumerate()
        .map(|(i, (src_labels, labels, tgt_labels))| EdgeRecord {
            edge: Edge::new(i as u64, NodeId(0), NodeId(1), labels),
            src_labels,
            tgt_labels,
        })
        .collect();
    (nodes, edges)
}

fn config() -> impl Strategy<Value = Word2VecConfig> {
    (
        prop::sample::select(vec![1usize, 4, 5, 8, 13]),
        0usize..8,
        0usize..4,
        0usize..4,
        // 1 and 3 bind on all but the smallest corpora; 1000 never does.
        prop::sample::select(vec![1usize, 3, 1_000]),
        (prop::sample::select(vec![0.0f64, 1.0]), any::<u64>()),
    )
        .prop_map(
            |(dim, negatives, window, epochs, max_pairs_per_epoch, (identity_blend, seed))| {
                Word2VecConfig {
                    dim,
                    negatives,
                    window,
                    epochs,
                    max_pairs_per_epoch,
                    identity_blend,
                    seed,
                    ..Default::default()
                }
            },
        )
}

/// Every in-vocabulary vector and one OOV vector, bit for bit.
fn assert_bit_equal(sentences: &[Vec<String>], new: &Word2Vec, old: &ReferenceWord2Vec) {
    let tokens = sentences.iter().flatten().map(String::as_str).chain([OOV]);
    for token in tokens {
        let (a, b) = (new.embed_token(token), old.embed_token(token));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "token {token:?}: {a:?} vs {b:?}");
    }
}

fn assert_records_match(nodes: &[NodeRecord], edges: &[EdgeRecord], cfg: &Word2VecConfig) {
    let sentences = reference_sentences(nodes, edges);
    let new = Word2Vec::train(&build_sentences(nodes, edges), cfg);
    let old = ReferenceWord2Vec::train(&sentences, cfg);
    assert_bit_equal(&sentences, &new, &old);
    let distinct: std::collections::HashSet<&String> = sentences.iter().flatten().collect();
    assert_eq!(new.vocab_size(), distinct.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn records_train_bit_identically(
        node_labels in prop::collection::vec(label_set(), 0..12),
        edge_labels in prop::collection::vec((label_set(), label_set(), label_set()), 0..24),
        cfg in config(),
    ) {
        let (nodes, edges) = records(node_labels, edge_labels);
        assert_records_match(&nodes, &edges, &cfg);
    }

    /// `from_sentences` takes sentences longer than an edge's three
    /// tokens, where `window` actually cuts pairs off.
    #[test]
    fn token_sentences_train_bit_identically(
        sentences in prop::collection::vec(prop::collection::vec("[a-f]", 0..7), 0..16),
        cfg in config(),
    ) {
        let new = Word2Vec::train(&LabelCorpus::from_sentences(&sentences), &cfg);
        let old = ReferenceWord2Vec::train(&sentences, &cfg);
        assert_bit_equal(&sentences, &new, &old);
    }
}

#[test]
fn empty_and_unlabeled_only_corpora() {
    let cfg = Word2VecConfig::default();
    assert_records_match(&[], &[], &cfg);
    let empty = LabelSet::empty;
    let (nodes, edges) = records(
        vec![empty(), empty()],
        vec![(empty(), empty(), empty()), (empty(), empty(), empty())],
    );
    assert_records_match(&nodes, &edges, &cfg);
    assert_eq!(build_sentences(&nodes, &edges).vocab().len(), 0);
}

/// The default-config embeddings of a fixed `pg_synth` corpus, as one
/// FNV-1a digest over every vector's bits. The constant was produced by
/// the trainer at the commit before the integer corpus (and is what the
/// reference still yields); a change to vocabulary order, init draws, pair
/// order, draw order or summation order moves it.
#[test]
fn default_config_embeddings_are_pinned() {
    let (nodes, edges) = uniform_records(4_000, 42);
    let cfg = Word2VecConfig::default();
    let corpus = build_sentences(&nodes, &edges);
    let digest = |model: &dyn LabelEmbedder| {
        let mut h: u64 = 0xcbf29ce484222325;
        for token in corpus.vocab().iter().map(String::as_str).chain([OOV]) {
            for byte in model
                .embed_token(token)
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100000001b3);
            }
        }
        h
    };
    let sentences = reference_sentences(&nodes, &edges);
    assert_eq!(corpus.vocab().len(), 14);
    assert_eq!(
        digest(&ReferenceWord2Vec::train(&sentences, &cfg)),
        PINNED_DIGEST
    );
    assert_eq!(digest(&Word2Vec::train(&corpus, &cfg)), PINNED_DIGEST);
}

const PINNED_DIGEST: u64 = 0xbf69_bc28_a39f_71c7;
