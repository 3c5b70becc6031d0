//! Bit-identity battery: the shipped `build_sentences` +
//! `Word2Vec::train` against the retained string-keyed reference
//! (`reference/`), over random record sets and configs on both sides of
//! the step budget, plus two pinned digests so that drift across commits —
//! not only between the two implementations — fails a test.

mod reference;

use pg_embed::{build_sentences, LabelCorpus, LabelEmbedder, Word2Vec, Word2VecConfig};
use pg_model::{sym, Edge, LabelSet, Node, NodeId};
use pg_store::{EdgeRecord, NodeRecord};
use proptest::prelude::*;
use reference::{
    diverse_records, reference_sentences, uniform_records, ReferenceWord2Vec, STEPS_PER_KIND,
};

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

/// The listed nodes and edges, the whole list `reps` times over.
fn records(
    node_labels: Vec<LabelSet>,
    edge_labels: Vec<(LabelSet, LabelSet, LabelSet)>,
    reps: usize,
) -> (Vec<NodeRecord>, Vec<EdgeRecord>) {
    let nodes = std::iter::repeat_n(node_labels, reps)
        .flatten()
        .enumerate()
        .map(|(i, labels)| Node::new(i as u64, labels))
        .collect();
    let edges = std::iter::repeat_n(edge_labels, reps)
        .flatten()
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
        (prop::sample::select(vec![0.0f64, 1.0]), any::<u64>()),
    )
        .prop_map(
            |(dim, negatives, window, epochs, (identity_blend, seed))| Word2VecConfig {
                dim,
                negatives,
                window,
                epochs,
                identity_blend,
                seed,
                ..Default::default()
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

/// Also the step and kind counts; returns the shipped model.
fn assert_records_match(
    nodes: &[NodeRecord],
    edges: &[EdgeRecord],
    cfg: &Word2VecConfig,
) -> Word2Vec {
    let sentences = reference_sentences(nodes, edges);
    let new = Word2Vec::train(&build_sentences(nodes, edges), cfg);
    let old = ReferenceWord2Vec::train(&sentences, cfg);
    assert_bit_equal(&sentences, &new, &old);
    assert_eq!((new.steps(), new.kinds()), (old.steps, old.kinds));
    let distinct: std::collections::HashSet<&String> = sentences.iter().flatten().collect();
    assert_eq!(new.vocab_size(), distinct.len());
    new
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn records_train_bit_identically(
        node_labels in prop::collection::vec(label_set(), 0..12),
        edge_labels in prop::collection::vec((label_set(), label_set(), label_set()), 0..24),
        // A kind occurs at most twice per edge: under 24 edges leave every
        // kind below `STEPS_PER_KIND` occurrences and the budget slack,
        // 100 copies put every kind above it and the budget binds.
        reps in prop::sample::select(vec![1usize, 100]),
        cfg in config(),
    ) {
        let (nodes, edges) = records(node_labels, edge_labels, reps);
        let model = assert_records_match(&nodes, &edges, &cfg);
        let budget = cfg.epochs * STEPS_PER_KIND * model.kinds();
        if reps == 1 {
            prop_assert!(model.steps() < budget || budget == 0);
        } else {
            prop_assert_eq!(model.steps(), budget);
        }
    }

    /// `from_sentences` takes sentences longer than an edge's three
    /// tokens, where `window` actually cuts pairs off.
    #[test]
    fn token_sentences_train_bit_identically(
        sentences in prop::collection::vec(prop::collection::vec("[a-f]", 0..7), 0..16),
        reps in prop::sample::select(vec![1usize, 100]),
        cfg in config(),
    ) {
        let sentences: Vec<_> = std::iter::repeat_n(sentences, reps).flatten().collect();
        let new = Word2Vec::train(&LabelCorpus::from_sentences(&sentences), &cfg);
        let old = ReferenceWord2Vec::train(&sentences, &cfg);
        assert_bit_equal(&sentences, &new, &old);
        prop_assert_eq!((new.steps(), new.kinds()), (old.steps, old.kinds));
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
        1,
    );
    assert_records_match(&nodes, &edges, &cfg);
    assert_eq!(build_sentences(&nodes, &edges).vocab().len(), 0);
}

/// A node-only batch has a vocabulary and no pair: training runs no step
/// and the vectors are the init draws, blended and normalized.
#[test]
fn node_only_corpus_trains_no_step() {
    let labels = |i: usize| LabelSet::single(LABEL_POOL[i]);
    let (nodes, edges) = records(vec![labels(0), labels(1), labels(0)], vec![], 1);
    let model = assert_records_match(&nodes, &edges, &Word2VecConfig::default());
    assert_eq!(
        (model.vocab_size(), model.steps(), model.kinds()),
        (2, 0, 0)
    );
}

/// Cost follows the vocabulary: below the budget a corpus runs one step
/// per pair and epoch; once the budget binds, more copies of the same
/// records run not one step more.
#[test]
fn steps_follow_kinds_not_records() {
    let set = |i: usize| LabelSet::single(LABEL_POOL[i]);
    // 6 pairs of 6 kinds, and 4 pairs of 2 kinds ((A,B) and (B,A) twice).
    let edges = vec![(set(0), set(1), set(2)), (set(0), set(1), set(0))];
    let cfg = Word2VecConfig::default();
    let steps = |reps: usize| {
        let (nodes, edges) = records(vec![set(3)], edges.clone(), reps);
        let model = assert_records_match(&nodes, &edges, &cfg);
        assert_eq!(model.kinds(), 6);
        model.steps()
    };
    let budget = cfg.epochs * STEPS_PER_KIND * 6;
    assert_eq!(steps(1), cfg.epochs * 10);
    assert_eq!(steps(10), cfg.epochs * 100);
    assert_eq!(steps(39), budget);
    assert_eq!(steps(1_000), budget);
}

/// One FNV-1a digest over the bits of every in-vocabulary vector and one
/// OOV vector.
fn digest(corpus: &LabelCorpus, model: &dyn LabelEmbedder) -> u64 {
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
}

/// Both trainers' default-config embeddings of one record set must
/// digest to `pinned`; returns the shipped model.
fn assert_pinned(nodes: &[NodeRecord], edges: &[EdgeRecord], pinned: u64) -> Word2Vec {
    let cfg = Word2VecConfig::default();
    let corpus = build_sentences(nodes, edges);
    let new = Word2Vec::train(&corpus, &cfg);
    let old = ReferenceWord2Vec::train(&reference_sentences(nodes, edges), &cfg);
    assert_eq!(digest(&corpus, &old), pinned, "reference trainer");
    assert_eq!(digest(&corpus, &new), pinned, "shipped trainer");
    new
}

/// The default-config embeddings of a fixed `pg_synth` corpus of 14
/// tokens, where the step budget binds. A change to vocabulary order,
/// init draws, pair order, draw order, summation order or the budget
/// moves the digest; it was last re-pinned when the budget replaced the
/// 200 000-pair cap.
#[test]
fn uniform_corpus_embeddings_are_pinned() {
    let (nodes, edges) = uniform_records(4_000, 42);
    let model = assert_pinned(&nodes, &edges, UNIFORM_DIGEST);
    assert_eq!(model.vocab_size(), 14);
    assert_eq!(model.steps(), 12 * STEPS_PER_KIND * model.kinds());
}

/// The same over a pattern-rich corpus the size of an
/// `incremental_diverse` batch, where the budget is slack. This constant
/// was recorded from the last commit without a step budget (both
/// trainers, 200 000-pair cap): the budget moves no bit of a corpus it
/// does not bind on.
#[test]
fn diverse_corpus_embeddings_are_pinned() {
    let (nodes, edges) = diverse_records(2_000, 42);
    let model = assert_pinned(&nodes, &edges, DIVERSE_DIGEST);
    assert!(model.steps() < 12 * STEPS_PER_KIND * model.kinds());
}

const UNIFORM_DIGEST: u64 = 0x5b95_31a6_0740_fafb;
const DIVERSE_DIGEST: u64 = 0xc639_d94d_076b_953b;
